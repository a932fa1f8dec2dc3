package protocol

import (
	"slices"
	"testing"

	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// These tests drive one or two machines by hand: no simulator, no
// goroutine, no socket. What a driver would put on the network is read
// straight out of the Out.

const population = 16

// livelike is a configuration like the one the drivers give their peers:
// Cyclon views, here with a shuffle every round.
func livelike() Params {
	return Params{
		Fanout: 3, Batch: 4, Policy: gossip.PolicyRandom,
		Controller: ControllerSpec{Kind: ControllerStatic},
		ViewCap:    8, ShuffleEvery: 1,
		BufferCap: 64, BufferMaxAge: 1 << 20, SeenCap: 1024,
	}
}

func newPeer(id simnet.NodeID, par *Params, ledger *fairness.Ledger) *Peer {
	p := new(Peer)
	p.Init(id, population, par, int64(id)+1, ledger)
	return p
}

func newLedger() *fairness.Ledger {
	return fairness.NewLedger(population, fairness.DefaultWeights())
}

// events is a Batch of already-materialised events, counting how many
// bodies the machine asked for.
type events struct {
	evs    []*pubsub.Event
	bodies int
}

func (b *events) Len() int { return len(b.evs) }
func (b *events) Head(i int) (pubsub.EventID, int) {
	return b.evs[i].ID, b.evs[i].WireSize()
}
func (b *events) Event(i int) *pubsub.Event { b.bodies++; return b.evs[i] }

func event(pub, seq uint32) *pubsub.Event {
	return &pubsub.Event{ID: pubsub.EventID{Publisher: pub, Seq: seq}, Topic: "t", Payload: []byte("x")}
}

// recv hands p a membership message from peer from.
func recv(p *Peer, kind Kind, from simnet.NodeID, entries []wire.ViewEntry, out *Out) {
	p.Recv(from, In{Kind: kind, Entries: entries}, out)
}

// recvEvents hands p a gossip message from peer from and returns its audit.
func recvEvents(p *Peer, from simnet.NodeID, b Batch) (novel, junk int) {
	var out Out
	novel, junk, _ = p.Recv(from, In{Kind: wire.KindEvents, Events: b}, &out)
	return novel, junk
}

// pushed returns the gossip message in out — its events and targets — or
// nothing.
func pushed(out *Out) ([]*pubsub.Event, []simnet.NodeID) {
	for _, m := range out.Msgs {
		if m.Kind == wire.KindEvents {
			return m.Events, m.To
		}
	}
	return nil, nil
}

func viewIDs(p *Peer) map[simnet.NodeID]bool {
	m := map[simnet.NodeID]bool{}
	for _, id := range p.View().IDs() {
		m[id] = true
	}
	return m
}

// TestTickEmitsOneBatchToFanoutViewMembers: a tick selects at most the
// batch lever and names exactly fanout distinct partners, every one a
// view member and none the peer itself — under both membership
// substrates — and names nobody when there is nothing to send.
func TestTickEmitsOneBatchToFanoutViewMembers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		viewCap int
	}{{"cyclon", 8}, {"full sampler", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			par := livelike()
			par.ViewCap, par.ShuffleEvery = tc.viewCap, 1<<20
			p := newPeer(0, &par, newLedger())
			if v := p.View(); v != nil {
				for id := simnet.NodeID(1); id <= 6; id++ {
					v.Add(id)
				}
			}
			var out Out
			p.Tick(&out)
			if len(out.Msgs) != 0 {
				t.Fatalf("an idle peer emitted %+v", out.Msgs)
			}
			for k := 0; k < 6; k++ {
				p.Publish("t", nil, []byte("x"), &out)
			}
			for round := 0; round < 50; round++ {
				p.Tick(&out)
				events, targets := pushed(&out)
				if len(events) != par.Batch {
					t.Fatalf("round %d: batch of %d, want the lever %d", round, len(events), par.Batch)
				}
				if len(targets) != par.Fanout {
					t.Fatalf("round %d: %d targets, want fanout %d", round, len(targets), par.Fanout)
				}
				seen := map[simnet.NodeID]bool{}
				for _, q := range targets {
					if q == p.ID() || seen[q] || q < 0 || int(q) >= population {
						t.Fatalf("round %d: bad target set %v", round, targets)
					}
					if v := p.View(); v != nil && !v.Contains(q) {
						t.Fatalf("round %d: target %d is not in the view %v", round, q, v.IDs())
					}
					seen[q] = true
				}
			}
			p.FreeRide = true
			p.Tick(&out)
			if events, targets := pushed(&out); len(events) != 0 || len(targets) != 0 {
				t.Fatalf("a free-rider pushed %d events to %d targets", len(events), len(targets))
			}
		})
	}
}

// TestFirstCopyPlusTwoBatchesOfDuplicatesRetires is the rule
// live.TestRetirementParity polices across the two drivers, checked on
// the one implementation: an event leaves the buffer on its first copy
// plus 2 × batch duplicates, its body is asked for once, and the audit
// grades every copy.
func TestFirstCopyPlusTwoBatchesOfDuplicatesRetires(t *testing.T) {
	for _, batch := range []int{1, 4, 8} {
		par := livelike()
		par.Batch = batch
		ledger := newLedger()
		p := newPeer(1, &par, ledger)
		p.Subscribe(pubsub.Topic("t"), &Out{})
		ev := event(0, 1)
		b := &events{evs: []*pubsub.Event{ev}}
		retiredOn := 0
		for k := 1; k <= 4*batch+2 && retiredOn == 0; k++ {
			novel, dup := recvEvents(p, 0, b)
			if wantNovel := k == 1; (novel == ev.WireSize()) != wantNovel || (dup == ev.WireSize()) == wantNovel {
				t.Fatalf("batch %d copy %d: audit novel %d dup %d", batch, k, novel, dup)
			}
			if !p.Buffer().Contains(ev.ID) {
				retiredOn = k
			}
		}
		if want := 1 + 2*batch; retiredOn != want {
			t.Errorf("batch %d: retired on copy %d, want %d", batch, retiredOn, want)
		}
		if b.bodies != 1 {
			t.Errorf("batch %d: asked for the event's body %d times, want once", batch, b.bodies)
		}
		if d := ledger.Account(1).Delivered; d != 1 {
			t.Errorf("batch %d: %d deliveries, want 1", batch, d)
		}
	}
}

// offerFrom returns what peer q would offer p in a shuffle.
func offerFrom(q simnet.NodeID, ids ...simnet.NodeID) []wire.ViewEntry {
	ents := []wire.ViewEntry{{ID: uint32(q)}}
	for _, id := range ids {
		ents = append(ents, wire.ViewEntry{ID: uint32(id), Age: 1})
	}
	return ents
}

// TestDetector: an unanswered shuffle target comes back suspect and is
// evicted and quarantined at EvictStrikes; direct contact voids the
// evidence; a quarantined address is refused from third-party offers.
func TestDetector(t *testing.T) {
	par := livelike()
	var out Out

	// step runs one round in which every shuffle target answers (with
	// nothing new) except the silent one.
	step := func(t *testing.T, p *Peer, silent simnet.NodeID) {
		t.Helper()
		p.Tick(&out)
		if len(out.Msgs) != 1 || out.Msgs[0].Kind != wire.KindOffer {
			t.Fatalf("a founder's membership round sent %+v, want one offer", out.Msgs)
		}
		if to := out.Msgs[0].To[0]; to != silent {
			recv(p, wire.KindReply, to, offerFrom(to), &out)
		}
	}
	// probe steps until the verdict on one more unanswered offer to the
	// silent peer is in: exactly one more strike.
	probe := func(t *testing.T, p *Peer, silent simnet.NodeID) {
		t.Helper()
		for i := 0; ; i++ {
			pending := p.ov.probe == silent
			step(t, p, silent)
			if pending {
				return
			}
			if i == 40 {
				t.Fatalf("peer %d never became the shuffle target; view %v", silent, p.View().IDs())
			}
		}
	}
	// held checks that id is still the peer's — in the view under
	// suspicion, or culled from it only as the probe now pending — with
	// that many strikes against it and no quarantine.
	held := func(t *testing.T, p *Peer, id simnet.NodeID, strikes int) {
		t.Helper()
		_, dead := p.ov.det.dead[id]
		inView := p.View().Suspect(id)
		if dead || p.ov.det.strikes[id] != strikes || !(inView || p.ov.probe == id) {
			t.Fatalf("peer %d: quarantined %v, %d strikes, in view %v (suspect %v), probe pending %v; want held with %d strikes",
				id, dead, p.ov.det.strikes[id], p.View().Contains(id), p.View().Suspect(id), p.ov.probe == id, strikes)
		}
	}
	founder := func() *Peer {
		p := newPeer(0, &par, newLedger())
		for id := simnet.NodeID(1); id <= 4; id++ {
			p.View().Add(id)
		}
		return p
	}

	t.Run("strikes evict and quarantine", func(t *testing.T) {
		p := founder()
		for strikes := 1; strikes < EvictStrikes; strikes++ {
			probe(t, p, 2)
			held(t, p, 2, strikes)
		}
		probe(t, p, 2) // strike number EvictStrikes
		if _, dead := p.ov.det.dead[2]; !dead || p.View().Contains(2) || p.ov.probe == 2 {
			t.Fatal("not evicted and quarantined after EvictStrikes silent probes")
		}
		// A third party re-offers the dead address: refused. A stranger in
		// the same offer is admitted.
		recv(p, wire.KindOffer, 3, offerFrom(3, 2, 9), &out)
		if p.View().Contains(2) {
			t.Fatal("a quarantined address came back through an offer")
		}
		if !p.View().Contains(9) {
			t.Fatal("the quarantine filter dropped an innocent entry")
		}
		if len(out.Msgs) != 1 || out.Msgs[0].Kind != wire.KindReply || out.Msgs[0].To[0] != 3 {
			t.Fatalf("offer not answered: %+v", out.Msgs)
		}
		// The verdict expires: QuarantineRounds later the address gets the
		// benefit of the doubt again, and not a round sooner.
		buried := p.ov.det.dead[2]
		if !p.ov.det.buried(2, buried+QuarantineRounds) || p.ov.det.buried(2, buried+QuarantineRounds+1) {
			t.Fatalf("quarantine does not last exactly QuarantineRounds = %d rounds", QuarantineRounds)
		}
		p.ov.det.bury(2, buried)
		// Direct contact lifts the quarantine.
		recvEvents(p, 2, &events{})
		recv(p, wire.KindOffer, 3, offerFrom(3, 2), &out)
		if !p.View().Contains(2) {
			t.Fatal("address still refused after it spoke for itself")
		}
	})

	t.Run("direct contact voids the evidence", func(t *testing.T) {
		p := founder()
		probe(t, p, 2)
		held(t, p, 2, 1)
		recvEvents(p, 2, &events{}) // any message at all
		if p.View().Suspect(2) || p.ov.det.strikes[2] != 0 || p.ov.probe == 2 {
			t.Fatal("evidence survived direct contact")
		}
		// The strike count restarted too: one more silence is not eviction.
		probe(t, p, 2)
		held(t, p, 2, 1)
	})
}

// TestJoinerStopsAfterJoinAttempts: a joiner whose seed never answers
// announces itself JoinAttempts times, under back-off, and then stays
// quiet with JoinFailed set; hearing from anyone gives it a new budget.
func TestJoinerStopsAfterJoinAttempts(t *testing.T) {
	par := livelike()
	p := newPeer(5, &par, newLedger())
	var out Out
	joins := 0
	count := func() {
		for _, s := range out.Msgs {
			if s.Kind == wire.KindJoin {
				if len(s.To) != 1 || s.To[0] != 0 || len(s.Entries) != 0 {
					t.Fatalf("announcement %+v, want an empty one to the seed", s)
				}
				joins++
			}
		}
	}
	p.Join(0, &out)
	count()
	if ids := p.View().IDs(); joins != 1 || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("joining: %d announcements, view %v; want one, and the seed alone", joins, ids)
	}
	// The silent seed is probed out of the view (EvictStrikes shuffles);
	// from then on the peer is isolated and the budget runs: each wait is
	// under twice its back-off, and the back-off doubles up to the cap.
	joins = 0
	for round := 0; round < EvictStrikes+1+JoinAttempts*(2*JoinBackoffCap+1); round++ {
		p.Tick(&out)
		count()
	}
	if joins != JoinAttempts {
		t.Fatalf("%d announcements from an isolated peer, want JoinAttempts = %d", joins, JoinAttempts)
	}
	if !p.JoinFailed() {
		t.Fatal("JoinFailed not set after the budget ran out")
	}
	// A bootstrap reply from anywhere integrates the peer after all.
	recv(p, wire.KindReply, 7, offerFrom(7, 8), &out)
	p.Tick(&out)
	if p.JoinFailed() {
		t.Fatal("JoinFailed survived a populated view")
	}
	// A peer that moved re-announces to its old seed, on a fresh budget.
	joins = 0
	p.Join(simnet.None, &out)
	count()
	if joins != 1 {
		t.Fatalf("%d re-announcements, want 1", joins)
	}
}

// TestJoinerLimitsAreThePopulationItJoins: the controller's default
// limits come from the population handed to Init.
func TestJoinerLimitsAreThePopulationItJoins(t *testing.T) {
	par := livelike()
	par.Fanout = 1
	par.Controller = ControllerSpec{Kind: ControllerAIMD, TargetRatio: 1000}
	var founder, joiner Peer
	founder.Init(0, 7, &par, 1, newLedger()) // ⌈ln 7⌉ = 2
	joiner.Init(7, 8, &par, 1, newLedger())  // ⌈ln 8⌉ = 3
	if founder.Fanout() != 2 || joiner.Fanout() != 3 {
		t.Fatalf("fanout floors %d and %d, want 2 and 3", founder.Fanout(), joiner.Fanout())
	}
}

// TestLeaveHandsOverFreshestEntries: each neighbour gets one KindLeave
// with at most ShuffleLen entries, freshest first, never its own address;
// the receiver forgets the leaver, quarantines it and adopts the rest.
func TestLeaveHandsOverFreshestEntries(t *testing.T) {
	par := livelike()
	par.ViewCap = 12
	ledger := newLedger()
	p := newPeer(0, &par, ledger)
	for id := simnet.NodeID(1); id <= 12; id++ {
		p.View().AddAged(membership.Entry{ID: id, Age: int(id)}) // 1 is the freshest
	}
	var out Out
	p.Leave(&out)
	if len(out.Msgs) != 12 {
		t.Fatalf("%d leave messages for 12 neighbours", len(out.Msgs))
	}
	told := map[simnet.NodeID]bool{}
	for _, s := range out.Msgs {
		if s.Kind != wire.KindLeave || len(s.To) != 1 || told[s.To[0]] {
			t.Fatalf("bad or repeated leave message %+v", s)
		}
		to := s.To[0]
		told[to] = true
		if len(s.Entries) != ShuffleLen {
			t.Fatalf("neighbour %d handed %d entries, want ShuffleLen", to, len(s.Entries))
		}
		next := simnet.NodeID(1)
		for _, e := range s.Entries {
			if next == to {
				next++
			}
			if simnet.NodeID(e.ID) != next {
				t.Fatalf("neighbour %d handed %v, want the freshest in order without itself", to, s.Entries)
			}
			next++
		}
	}

	q := newPeer(3, &par, ledger)
	q.View().Add(0)
	var qout Out
	for _, s := range out.Msgs {
		if s.To[0] == 3 {
			recv(q, wire.KindLeave, 0, s.Entries, &qout)
		}
	}
	got := viewIDs(q)
	if got[0] || got[3] || len(got) != ShuffleLen {
		t.Fatalf("after the hand-off the view is %v", q.View().IDs())
	}
	recv(q, wire.KindOffer, 1, offerFrom(1, 0), &qout)
	if q.View().Contains(0) {
		t.Fatal("the leaver's address came back through an offer")
	}

	full := par
	full.ViewCap = 0
	f := newPeer(1, &full, ledger)
	f.Leave(&out)
	if len(out.Msgs) != 0 {
		t.Fatalf("a full-sampler peer sent %d leave messages", len(out.Msgs))
	}
	f.Join(0, &out) // nobody to be introduced to, and no view to put the seed in
	if len(out.Msgs) != 0 || f.JoinFailed() {
		t.Fatalf("a full-sampler peer announced itself: %+v", out.Msgs)
	}
}

// TestScribblingOnSendEntriesLeavesTheView: a Send's Entries are scratch
// but never the view's own memory — a driver writing into them after the
// call leaves View() as it was, for every input that emits membership.
func TestScribblingOnSendEntriesLeavesTheView(t *testing.T) {
	par := livelike()
	p := newPeer(0, &par, newLedger())
	for id := simnet.NodeID(1); id <= 6; id++ {
		p.View().Add(id)
	}
	var out Out
	for _, input := range []struct {
		name string
		call func()
	}{
		{"offer", func() { p.Tick(&out) }},
		{"reply", func() { recv(p, wire.KindOffer, 7, offerFrom(7, 8), &out) }},
		{"bootstrap", func() { recv(p, wire.KindJoin, 9, nil, &out) }},
		{"leave", func() { p.Leave(&out) }},
	} {
		input.call()
		if len(out.Msgs) == 0 {
			t.Fatalf("%s: nothing sent", input.name)
		}
		want := p.View().Entries()
		for _, s := range out.Msgs {
			for i := range s.Entries {
				s.Entries[i] = wire.ViewEntry{ID: 99, Age: 99}
			}
		}
		if got := p.View().Entries(); !slices.Equal(got, want) {
			t.Fatalf("%s: writing into the sent entries changed the view %v to %v", input.name, want, got)
		}
	}
}

// TestJoinBootstrapsTheJoiner: a seed answers an announcement with a
// sample of its view that leaves the joiner's own address out, and
// remembers the joiner.
func TestJoinBootstrapsTheJoiner(t *testing.T) {
	par := livelike()
	p := newPeer(0, &par, newLedger())
	for id := simnet.NodeID(1); id <= 5; id++ {
		p.View().Add(id)
	}
	var out Out
	recv(p, wire.KindJoin, 9, nil, &out)
	if !p.View().Contains(9) {
		t.Fatal("the seed did not remember the joiner")
	}
	if len(out.Msgs) != 1 || out.Msgs[0].Kind != wire.KindReply || out.Msgs[0].To[0] != 9 {
		t.Fatalf("no bootstrap reply: %+v", out.Msgs)
	}
	if n := len(out.Msgs[0].Entries); n != 5 {
		t.Fatalf("bootstrap of %d entries, want the 5 others", n)
	}
	for _, e := range out.Msgs[0].Entries {
		if e.ID == 9 {
			t.Fatal("the joiner was sent its own address")
		}
	}
}
