package protocol

import (
	"math/rand"
	"sort"

	"fairgossip/internal/membership"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Kind is the wire's message kind, the one family both drivers speak.
type Kind = wire.Kind

// overlay is what a peer keeps because its membership is a partial view
// rather than the full roster: the Cyclon state, the failure detector
// that rides its shuffles, and the join hand-shake.
type overlay struct {
	cyclon *membership.Cyclon

	det        detector
	probe      simnet.NodeID    // current unanswered shuffle target, or None
	probeEntry membership.Entry // what to restore if it stays unanswered

	joinSeed     simnet.NodeID // whom to (re)announce to while the view is empty; None for founders
	joinAttempts int
	joinWait     int // membership rounds to sit out before re-announcing
	joinFailed   bool

	in []membership.Entry // admit's scratch: received entries in the view's terms
}

// Bootstrap seeds the n founders' views with random contacts (a join
// service in a deployed system; free here, like handing out a seed-peer
// list — late joiners pay for their introduction instead). One stream
// walks the peers in id order, so the initial overlay depends on nothing
// but (n, viewCap, seed).
func Bootstrap(n, viewCap int, seed int64, view func(i int) *membership.View) {
	k := max(viewCap/2, 3)
	boot := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < n; i++ {
		v := view(i)
		for added := 0; added < k && n > 1; {
			if cand := simnet.NodeID(boot.Intn(n)); cand != v.Self() {
				v.Add(cand)
				added++
			}
		}
	}
}

// shuffle runs one Cyclon step: settle the previous shuffle's probe
// verdict, then age the view, cull the oldest entry as shuffle target,
// and offer it our entries — which doubles as the failure detector's
// probe of that target. An isolated peer (a dead hand-shake, a view eaten
// by churn) falls back to re-announcing itself to its join seed.
func (p *Peer) shuffle(out *Out) {
	ov := p.ov
	p.resolveProbe()
	// IncrementAges preserves the age order (ties and all), so the
	// current oldest is the entry InitiateShuffle is about to cull, at
	// one round younger.
	old, _ := ov.cyclon.View().Oldest()
	target, offer, ok := ov.cyclon.InitiateShuffle(p.rand())
	if !ok {
		p.announce(out)
		return
	}
	// A non-empty view means the peer is integrated; a later isolation
	// gets a fresh retry budget.
	ov.joinAttempts, ov.joinWait, ov.joinFailed = 0, 0, false
	ov.probe = target
	ov.probeEntry = membership.Entry{ID: target, Age: old.Age + 1}
	out.send(wire.KindOffer, target, offer)
}

// resolveProbe settles the verdict on the previous membership round's
// shuffle target. Silence since then is a strike; EvictStrikes
// consecutive strikes evicts and quarantines the address. Anything less
// restores the culled entry with its age frozen (MarkSuspect), so it
// stays the oldest, is re-targeted promptly, and third-party re-offers
// cannot launder the suspicion away.
func (p *Peer) resolveProbe() {
	ov := p.ov
	if ov.probe == simnet.None {
		return
	}
	id := ov.probe
	ov.probe = simnet.None
	v := ov.cyclon.View()
	if ov.det.strike(id) {
		ov.det.bury(id, p.round)
		// The shuffle already culled the entry; a third party may have
		// re-offered it mid-probe, so remove defensively.
		v.Remove(id)
		return
	}
	v.AddAged(ov.probeEntry)
	v.MarkSuspect(id)
}

// heard records direct contact from a peer: every piece of detector
// evidence against it is void, a pending probe of it is answered, and any
// view suspicion is cleared. Every input that names a sender comes here.
func (p *Peer) heard(from simnet.NodeID) {
	ov := p.ov
	if ov == nil {
		return
	}
	ov.det.alive(from)
	if ov.probe == from {
		ov.probe = simnet.None
	}
	ov.cyclon.View().ClearSuspect(from)
}

// admit hears from and converts what it sent into view entries in scratch,
// dropping quarantined addresses — the half of eviction that keeps
// third-party gossip from recirculating a dead peer into the view.
func (p *Peer) admit(from simnet.NodeID, entries []wire.ViewEntry) []membership.Entry {
	p.heard(from)
	ov := p.ov
	ov.in = ov.in[:0]
	for _, e := range entries {
		if id := simnet.NodeID(e.ID); !ov.det.buried(id, p.round) {
			ov.in = append(ov.in, membership.Entry{ID: id, Age: int(e.Age)})
		}
	}
	return ov.in
}

// bootstrap admits a joining peer: merge whatever view it announced,
// remember its address, and bootstrap it with a sample of our own view
// sent back as a shuffle reply (the joiner merges it conservatively,
// learning our address too, and has no use for its own).
func (p *Peer) bootstrap(from simnet.NodeID, entries []wire.ViewEntry, out *Out) {
	v := p.ov.cyclon.View()
	for _, e := range p.admit(from, entries) {
		v.AddAged(e)
	}
	v.Add(from)
	ents := v.Entries()
	p.rand().Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
	out.send(wire.KindReply, from, freshest(ents, p.ov.cyclon.ShuffleLen(), from))
}

// forget handles a graceful departure: forget the leaver, refuse its
// address from future offers, and adopt the replacement contacts it handed
// over. (admit's hearing from it already settled a pending probe of it.)
func (p *Peer) forget(from simnet.NodeID, entries []wire.ViewEntry) {
	v := p.ov.cyclon.View()
	in := p.admit(from, entries)
	v.Remove(from)
	p.ov.det.bury(from, p.round)
	for _, e := range in {
		if e.ID != from {
			v.AddAged(e)
		}
	}
}

// freshest returns, in a slice of its own, the first k of ents that are
// not about peer skip.
func freshest(ents []membership.Entry, k int, skip simnet.NodeID) []membership.Entry {
	out := make([]membership.Entry, 0, k)
	for _, e := range ents {
		if len(out) == k {
			break
		}
		if e.ID != skip {
			out = append(out, e)
		}
	}
	return out
}

// Join makes the peer (one with a partial view) a joiner introduced by
// seed and announces it: the seed joins the view and is the address the
// peer re-announces itself to, on a fresh budget, whenever a membership
// round finds the view empty. The seed replies with bootstrap entries.
// With simnet.None or its own id the previous seed is kept — how a peer
// that moved to a new address makes the overlay re-learn it promptly. A
// peer without a partial view has nobody to be introduced to. Either way
// a peer back from an outage walks again into every topic group whose view
// it lost.
func (p *Peer) Join(seed simnet.NodeID, out *Out) {
	out.reset()
	if ov := p.ov; ov != nil {
		if seed != simnet.None && seed != p.id {
			ov.joinSeed = seed
			ov.cyclon.View().Add(seed)
		}
		ov.joinAttempts, ov.joinWait, ov.joinFailed = 0, 0, false
		p.announce(out)
	}
	p.rejoinGroups(out)
}

// JoinFailed reports whether the peer has given up announcing itself:
// JoinAttempts announcements, capped exponential back-off between
// them, and still no view. A view entry from anywhere lifts it.
func (p *Peer) JoinFailed() bool { return p.ov != nil && p.ov.joinFailed }

// announce sends the join announcement under capped exponential back-off
// with seeded jitter, and gives up after JoinAttempts of them
// instead of re-announcing every membership round forever.
func (p *Peer) announce(out *Out) {
	ov := p.ov
	if ov.joinSeed == simnet.None || ov.joinFailed {
		return // founders have no seed; a given-up joiner stays quiet
	}
	if ov.joinWait > 0 {
		ov.joinWait--
		return
	}
	if ov.joinAttempts >= JoinAttempts {
		ov.joinFailed = true
		return
	}
	out.send(wire.KindJoin, ov.joinSeed, nil)
	ov.joinAttempts++
	backoff := min(1<<(ov.joinAttempts-1), JoinBackoffCap)
	ov.joinWait = backoff + p.rand().Intn(backoff)
}

// Leave announces a graceful departure: every view neighbour is handed up
// to ShuffleLen of the freshest view entries (excluding its own address)
// as replacement contacts — the overlay loses an address but keeps its
// degree. Under the full sampler there are no views to repair. Going
// silent afterwards is the driver's business.
func (p *Peer) Leave(out *Out) {
	out.reset()
	if p.ov == nil {
		return
	}
	ents := p.ov.cyclon.View().Entries()
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].Age < ents[j].Age })
	for _, to := range ents {
		out.send(wire.KindLeave, to.ID, freshest(ents, p.ov.cyclon.ShuffleLen(), to.ID))
	}
}
