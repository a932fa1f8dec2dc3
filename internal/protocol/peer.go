// Package protocol is the FairGossip peer, written once: Fig. 4's push
// round steered by §5.2's two levers, the Cyclon exchange that feeds it
// partners, the failure detector and join back-off that ride on that
// exchange, and the simulator's extensions — §5.1's topic groups, §5.2's
// semantic partner bias, push-pull anti-entropy and cheat padding. A Peer
// is a single-threaded state machine with no clock, goroutine, socket or
// lock in it; internal/core drives it under the discrete-event simulator,
// internal/live on a goroutine behind a real transport.
//
// # Driver contract
//
// The driver owns time, the network and the encoding; the Peer owns every
// protocol decision and every random draw, and is not synchronised: one
// caller at a time. There is one mode:
//
//   - Calls: Tick once a gossip period, then Adapt; every other input
//     (Subscribe, Unsubscribe, Publish, Recv, Join, Leave) at any time
//     between Ticks. What Params enables runs inside those calls.
//   - Gossip: Tick's push is not the only one. Publish pushes the new
//     event at once to fanout partners as an eager push of hop 1
//     (wire.KindEager), and Recv relays at once the new events of a hop-h
//     eager push as hop h+1 while h < EagerHops — an event's first
//     EagerHops hops — and, over the flat overlay, every new big event
//     (gossip.Big), whoever sent it, a pull answer included; each at most
//     once per peer (gossip.Buffer.FirstSend), in full, never by id. A
//     round push or a pull answer relays nothing else. All are ClassApp
//     messages in the Out like a round's, so a driver flushes after every
//     input, not only after Tick. A driver carries an eager push's hop
//     (In.Hop) and decides nothing by it.
//   - Buffers: an input that takes an *Out overwrites it, and the driver
//     sends each of out.Msgs, in order, to each of its To before its next
//     call — one flush loop. A message's slices and its To are scratch that
//     dies at that call: a driver copies what it keeps in flight.
//   - Charges: the Peer books what no encoding changes — a publication, a
//     delivery, the filter count. The driver books every send
//     (Ledger.AddSend under the message's Class, with the size it alone
//     knows) before Adapt, whose window reads the account, and books the
//     novelty audit Recv returns against the sender: the one write aimed at
//     another peer's account, which the sharded simulator defers to a
//     barrier.
//   - Recv is the one switch over the wire kinds. A kind the peer's Params
//     do not run comes back unhandled and leaves the peer untouched; the
//     live runtime counts it as malformed.
//   - The failure detector runs wherever there is a partial view
//     (Params.ViewCap > 0) and draws no random number; the join hand-shake
//     runs iff Join was called. Neither has a switch.
package protocol

import (
	"math"
	"math/rand"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// Peer is one FairGossip process's protocol state, stream, seen-set and
// buffer included. Build it in place with Init, embedded or held by value,
// and never copy it afterwards: the stream points into the peer.
type Peer struct {
	id     simnet.NodeID
	ledger *fairness.Ledger
	par    *Params // the cluster's, shared and read-only

	interest pubsub.Interest
	seen     gossip.SeenSet
	buffer   gossip.Buffer // the flat overlay's event buffer
	rng      randutil.Stream

	ov   *overlay // partial view, detector, join state; nil under the full sampler
	full membership.FullSampler
	x    *ext // nil unless Params run topic groups, semantic bias or anti-entropy

	ctl    *control // nil under the static controller
	fanout int
	batch  int
	round  int
	pubSeq uint32

	// OnDeliver, when set, observes every delivered event.
	OnDeliver func(*pubsub.Event)

	// FreeRide makes the peer stop forwarding while it keeps receiving,
	// delivering and shuffling — the defector fairness exists to expose.
	FreeRide bool

	// Cheat pads every gossip message the peer sends with JunkPadding bytes
	// of worthless data (EXP-A6): raw contribution the audit sees through.
	Cheat bool
}

// ext is the state only the simulator's extensions keep. Sim-huge runs
// none of them, and at N = 100 000 each byte of a peer is a tenth of a
// megabyte.
type ext struct {
	groups     map[string]*topicGroup // topic groups this peer is in; nil until the first join
	groupOrder []string               // their topics, sorted (deterministic rounds)
	walkRelays uint64                 // walks relayed for others: §5.1's maintenance burden

	peerFPs map[simnet.NodeID]uint64 // other peers' interest fingerprints (semantic.go)

	archive *gossip.Buffer // anti-entropy's store (pushpull.go); nil unless Params.AntiEntropy
}

// control is an adaptive peer's controller and the ledger account its
// last window closed on. A static peer has none: its levers never move.
type control struct {
	ctrl     adaptive.Controller
	lastAcct fairness.Account
}

// Out is where a Peer writes what the driver must put on the network: a
// peer's own, or one shared by all the peers a single thread drives.
type Out struct {
	Msgs []Outgoing // in sending order

	// The messages' events, targets, entries and parts, back to back.
	evs   []*pubsub.Event
	to    []simnet.NodeID
	ents  []wire.ViewEntry
	parts []wire.Parts

	sel  []*pubsub.Event  // SELECTEVENTS' scratch, or the events a pull is answered with
	lazy []pubsub.EventID // the ids SELECTEVENTS sends lazily, or those a pull asks for
	ids  []simnet.NodeID  // partner draws' scratch
}

// Outgoing is one message, the peers it goes to, and the ledger class its
// bytes are charged under.
type Outgoing struct {
	wire.Msg
	To    []simnet.NodeID
	Class fairness.Class
}

// In is a received message as its driver holds it: the kind, an eager
// push's hop, the entries and parts the wire carried (Parts nil: none),
// and its events as a Batch, which is read for the kinds that carry
// events.
type In struct {
	Kind    Kind
	Hop     uint8
	Entries []wire.ViewEntry
	Parts   *wire.Parts
	Events  Batch
}

// Batch is a received message's events as its driver holds them — decoded
// events in the simulator, validated records over the receive buffer in
// the live runtime. Head returns the i-th event's id and encoded size;
// Event materialises it into one the peer may keep (nil: skip it), and is
// asked at most once: for an id that passed the seen-set, or to relay a
// walk on — so a driver that receives bytes decodes an event once per
// peer, not per copy.
type Batch interface {
	Len() int
	Head(i int) (pubsub.EventID, int)
	Event(i int) *pubsub.Event
}

func (o *Out) reset() {
	o.Msgs, o.evs, o.to, o.ents = o.Msgs[:0], o.evs[:0], o.to[:0], o.ents[:0]
	clear(o.parts) // walks' and digests' own slices
	o.parts = o.parts[:0]
}

// emit queues m to the peers to, its events and targets copied into o's
// stores, and its parts too when x is not nil.
func (o *Out) emit(m wire.Msg, x *wire.Parts, class fairness.Class, to ...simnet.NodeID) {
	m.Events = cut(&o.evs, m.Events)
	if x != nil {
		o.parts = append(o.parts, *x)
		m.Parts = &o.parts[len(o.parts)-1]
	}
	o.Msgs = append(o.Msgs, Outgoing{Msg: m, To: cut(&o.to, to), Class: class})
}

// send queues a membership message, converting its entries into the
// wire's (ages saturate at 65535) in o's store.
func (o *Out) send(kind Kind, to simnet.NodeID, entries []membership.Entry) {
	start := len(o.ents)
	for _, e := range entries {
		o.ents = append(o.ents, wire.ViewEntry{ID: uint32(e.ID), Age: uint16(min(e.Age, math.MaxUint16))})
	}
	o.emit(wire.Msg{Kind: kind, Entries: o.ents[start:len(o.ents):len(o.ents)]}, nil, fairness.ClassInfra, to)
}

// cut appends s to a store and returns the copy, capacity-capped.
func cut[T any](store *[]T, s []T) []T {
	start := len(*store)
	*store = append(*store, s...)
	return (*store)[start:len(*store):len(*store)]
}

// Init builds p, a zero Peer, as peer id of a population of n — the
// population the peer joins, which is what the controller's default
// limits are computed for — drawing from the randutil.Stream seeded with seed.
func (p *Peer) Init(id simnet.NodeID, n int, par *Params, seed int64, ledger *fairness.Ledger) {
	p.id, p.ledger, p.par, p.fanout, p.batch = id, ledger, par, par.Fanout, par.Batch
	p.rng.Seed(seed)
	p.seen.Init(par.SeenCap)
	p.buffer.Init(par.BufferCap, par.BufferMaxAge)
	if c := par.controller(n); c != nil {
		p.ctl = &control{ctrl: c}
		p.fanout, p.batch = c.Fanout(), c.Batch()
	}
	if par.ViewCap > 0 {
		p.ov = &overlay{
			cyclon:   membership.NewCyclon(membership.NewView(id, par.ViewCap), ShuffleLen),
			det:      detector{strikes: make(map[simnet.NodeID]int), dead: make(map[simnet.NodeID]int)},
			probe:    simnet.None,
			joinSeed: simnet.None,
		}
	} else {
		p.full = membership.FullSampler{Self: id, N: n}
	}
	if par.Topics || par.SemanticBias > 0 || par.AntiEntropy > 0 {
		p.x = &ext{archive: newArchive(par)}
	}
}

func (p *Peer) ID() simnet.NodeID           { return p.id }
func (p *Peer) Fanout() int                 { return p.fanout } // the lever F_i
func (p *Peer) Batch() int                  { return p.batch }  // the lever N_i
func (p *Peer) Rounds() int                 { return p.round }  // gossip periods run so far
func (p *Peer) Interest() *pubsub.Interest  { return &p.interest }
func (p *Peer) Buffer() *gossip.Buffer      { return &p.buffer }           // the flat overlay's event buffer
func (p *Peer) Seen(id pubsub.EventID) bool { return p.seen.Contains(id) } // published or admitted here (within SeenCap)
func (p *Peer) rand() *rand.Rand            { return &p.rng.Rand }

// View returns the Cyclon partial view, or nil under the full sampler.
func (p *Peer) View() *membership.View {
	if p.ov == nil {
		return nil
	}
	return p.ov.cyclon.View()
}

// Subscribe registers a filter and returns its subscription ID. Under
// topic groups a plain topic filter also joins the topic's group through a
// subscription walk (§5.1).
func (p *Peer) Subscribe(f pubsub.Filter, out *Out) pubsub.SubID {
	out.reset()
	id := p.interest.Subscribe(f)
	p.ledger.SetFilters(int(p.id), p.interest.Count())
	if p.par.Topics {
		if topic, ok := pubsub.TopicOf(f); ok {
			p.joinGroup(topic, out)
		}
	}
	return id
}

// Unsubscribe removes a subscription. Under topic groups the peer drops
// out of the groups no remaining filter selects; its stale entries age out
// of the other members' views.
func (p *Peer) Unsubscribe(id pubsub.SubID) bool {
	ok := p.interest.Unsubscribe(id)
	p.ledger.SetFilters(int(p.id), p.interest.Count())
	if ok && p.par.Topics {
		p.leaveGroups()
	}
	return ok
}

// Publish originates an event: charged, marked seen, delivered locally if
// it matches, kept for forwarding — in the flat buffer, or the topic's
// group — and pushed at once to fanout partners, the event's first hop (an
// eager push of hop 1); a publisher outside the group hands it to a member
// by a publication walk instead.
func (p *Peer) Publish(topic string, attrs []pubsub.Attr, payload []byte, out *Out) *pubsub.Event {
	out.reset()
	buf := &p.buffer
	if p.par.Topics {
		buf = nil
		if g := p.group(topic); g != nil {
			buf = g.buffer
		}
	}
	p.pubSeq++
	ev := &pubsub.Event{
		ID:      pubsub.EventID{Publisher: uint32(p.id), Seq: p.pubSeq},
		Topic:   topic,
		Attrs:   attrs,
		Payload: payload,
	}
	p.ledger.AddPublish(int(p.id), ev.WireSize())
	p.seen.Add(ev.ID)
	p.deliver(ev)
	if a := p.archive(); a != nil {
		a.Insert(ev)
	}
	if buf == nil {
		p.startWalk(wire.KindPubWalk, topic, []*pubsub.Event{ev}, out)
		return ev
	}
	buf.Insert(ev)
	if !p.FreeRide {
		if e, ok := buf.FirstSend(ev.ID); ok {
			out.sel = append(out.sel[:0], e)
			p.spread(out, topic, out.sel, nil, 1)
		}
	}
	return ev
}

func (p *Peer) deliver(ev *pubsub.Event) {
	if !p.interest.Match(ev) {
		return
	}
	p.ledger.AddDelivery(int(p.id))
	if p.OnDeliver != nil {
		p.OnDeliver(ev)
	}
}

// Tick runs one gossip period up to the sends: every ShuffleEvery-th round
// a Cyclon shuffle (free-riders too), then the push step — Fig. 4's round
// over the flat overlay, over each topic group, or semantic bias's
// per-topic batches — then, every AntiEntropy-th round, a digest.
func (p *Peer) Tick(out *Out) {
	out.reset()
	p.round++
	if p.ov != nil && p.round%p.par.ShuffleEvery == 0 {
		p.shuffle(out)
	}
	switch {
	case p.flat():
		p.push(out)
	case p.par.Topics:
		p.pushTopics(out)
	default:
		p.pushSemantic(out)
	}
	p.antiEntropy(out)
}

// flat reports whether the peer pushes over the flat overlay: the one
// push mode whose rounds send big events by id (push), and so the one in
// which a peer floods a new big event on admission (admitEvents). Topic
// groups and semantic bias send no ids.
func (p *Peer) flat() bool { return !p.par.Topics && p.par.SemanticBias <= 0 }

// push is Fig. 4's round over the flat overlay: SELECTEVENTS, then
// SELECTPARTICIPANTS when there is something to send, and the buffer ages
// by one round — a free-rider's too, so it does not hoard a backlog to
// replay on reform. A big event goes by its id (lazy push, see
// gossip.Buffer.SelectSplit) — its payload went out when this peer
// admitted it — and a receiver that lacks it pulls it.
func (p *Peer) push(out *Out) {
	if !p.FreeRide {
		events, lazy := p.buffer.SelectSplit(p.rand(), &out.sel, &out.lazy, p.batch, p.par.Policy)
		p.spread(out, "", events, lazy, 0)
	}
	p.buffer.Tick()
}

// spread sends a batch to fanout partners, drawn as the push mode draws
// them: from the topic's group view, tagged and with the group's ads
// (a heartbeat when the batch is empty); per topic, biased towards peers
// whose interest overlaps, under semantic bias; otherwise from the
// overlay, and only when there is something to send. A round's push
// (hop 0), an eager push (hop ≥ 1) and a big event's flood (hop 0) all
// send through it.
func (p *Peer) spread(out *Out, topic string, events []*pubsub.Event, lazy []pubsub.EventID, hop uint8) {
	switch {
	case p.par.Topics:
		g := p.group(topic)
		ads := p.groupSample(g, adLen, out)
		p.gossip(out, p.viewSample(g.view, p.fanout, out), topic, events, nil, ads, hop)
	case p.par.SemanticBias > 0:
		for _, group := range splitByTopic(events) {
			p.gossip(out, p.biasedPeers(p.fanout, batchFingerprint(group), out), "", group, nil, nil, hop)
		}
	default:
		if len(events)+len(lazy) > 0 {
			p.gossip(out, p.partners(p.fanout, out), "", events, lazy, nil, hop)
		}
	}
}

// selectFrom picks this round's batch — at most the batch lever — from buf.
func (p *Peer) selectFrom(buf *gossip.Buffer, out *Out) []*pubsub.Event {
	return buf.SelectInto(p.rand(), &out.sel, p.batch, p.par.Policy)
}

// partners draws up to k distinct partners from the membership substrate.
func (p *Peer) partners(k int, out *Out) []simnet.NodeID {
	if p.ov != nil {
		return p.viewSample(p.ov.cyclon.View(), k, out)
	}
	out.ids = p.full.SamplePeersInto(p.rand(), k, out.ids)
	return out.ids
}

// viewSample draws up to k distinct members of a view.
func (p *Peer) viewSample(v *membership.View, k int, out *Out) []simnet.NodeID {
	out.ids = v.SampleInto(p.rand(), k, out.ids)
	return out.ids
}

// gossip sends a batch — with lazy ids a wire.KindLazy, with a hop a
// wire.KindEager, in a topic group tagged, with membership ads — to the
// peers to: one message to all of them, or, under semantic bias, one
// each, every one with its own draw of fingerprint ads.
func (p *Peer) gossip(out *Out, to []simnet.NodeID, topic string, events []*pubsub.Event, lazy []pubsub.EventID, ads []wire.ViewEntry, hop uint8) {
	m, x := wire.Msg{Kind: wire.KindEvents, Hop: hop, Events: events}, wire.Parts{IDs: lazy, Topic: topic, Ads: ads}
	switch {
	case len(lazy) > 0:
		m.Kind = wire.KindLazy
	case hop > 0:
		m.Kind = wire.KindEager
	}
	if p.Cheat {
		x.Pad = JunkPadding
	}
	if p.par.SemanticBias <= 0 {
		if len(to) == 0 {
			return
		}
		var px *wire.Parts
		if len(lazy) > 0 || topic != "" || len(ads) > 0 || p.Cheat {
			px = &x
		}
		out.emit(m, px, fairness.ClassApp, to...)
		return
	}
	x.FP = interestFingerprint(&p.interest)
	for _, q := range to {
		x.FPAds = p.fpAds(2)
		out.emit(m, &x, fairness.ClassApp, q)
	}
}

// Adapt closes a round: every ControlWindow-th one feeds the window's
// ledger delta to the controller and takes the levers it returns. A static
// peer has nothing to adapt.
func (p *Peer) Adapt() {
	if p.ctl == nil || p.round%ControlWindow != 0 {
		return
	}
	acct := p.ledger.Account(int(p.id))
	delta := fairness.Delta(acct, p.ctl.lastAcct)
	p.ctl.lastAcct = acct
	p.fanout, p.batch = p.ctl.ctrl.Update(adaptive.Sample{
		Benefit:      fairness.Benefit(delta),
		Contribution: fairness.Contribution(delta, p.ledger.Weights()),
	})
}

var noParts wire.Parts

// Recv handles one message from peer from: the one switch over the wire
// kinds. It returns a gossip message's novelty audit (§5.2 bias
// resistance) — the bytes that were news and those that were not, cheat
// padding included — for the driver to book against from. ok is false for
// a kind the peer's Params do not run, which leaves the peer untouched.
func (p *Peer) Recv(from simnet.NodeID, m In, out *Out) (novel, junk int, ok bool) {
	out.reset()
	x := m.Parts
	if x == nil {
		x = &noParts
	}
	// A message naming the peer itself as its sender is an echo; a
	// membership message or a pull request is dropped then, and so is a
	// membership message without a view.
	echo := from == p.id
	view := p.ov != nil && !echo
	ok = true
	switch m.Kind {
	case wire.KindEvents:
		novel, junk = p.recvGossip(from, x, m.Events, 0, out)
	case wire.KindEager:
		novel, junk = p.recvGossip(from, x, m.Events, max(m.Hop, 1), out)
	case wire.KindLazy:
		novel, junk = p.recvGossip(from, x, m.Events, 0, out)
		junk += p.recvLazy(from, x.IDs, out)
	case wire.KindOffer:
		if view {
			out.send(wire.KindReply, from, p.ov.cyclon.HandleShuffle(p.rand(), from, p.admit(from, m.Entries)))
		}
	case wire.KindReply:
		if view {
			p.ov.cyclon.HandleReply(from, p.admit(from, m.Entries))
		}
	case wire.KindJoin:
		if view {
			p.bootstrap(from, m.Entries, out)
		}
	case wire.KindLeave:
		if view {
			p.forget(from, m.Entries)
		}
	case wire.KindSubWalk:
		if ok = p.par.Topics; ok {
			p.recvSubWalk(from, x, m.Events, out)
		}
	case wire.KindSubAck:
		if ok = p.par.Topics; ok {
			p.recvSubAck(x, m.Entries)
		}
	case wire.KindPubWalk:
		if ok = p.par.Topics; ok {
			p.recvPubWalk(from, x, m.Events, out)
		}
	case wire.KindDigest:
		if ok = p.par.AntiEntropy > 0; ok && !echo {
			p.recvDigest(from, x, out)
		}
	case wire.KindPull:
		if !echo {
			p.recvPull(from, x, out)
		}
	default:
		ok = false
	}
	return novel, junk, ok
}

// recvGossip admits a gossip message: an eager push of hop ≥ 1 (a hostile
// hop 0 reads as 1), or a round push or pull answer (hop 0). Semantic bias
// learns the fingerprints it carries and a topic group its ads; under
// topic groups only a member keeps a topic's events for forwarding —
// anyone else delivers them, if interesting, and never buffers them (fair
// by structure). A hop-h push's new events are relayed at once, in one
// eager push of hop h+1, while h < EagerHops; over the flat overlay every
// new big event is relayed at once too, as a round's gossip when nothing
// else is.
func (p *Peer) recvGossip(from simnet.NodeID, x *wire.Parts, b Batch, hop uint8, out *Out) (novel, junk int) {
	if p.par.SemanticBias > 0 {
		p.rememberFingerprint(from, x.FP)
		for _, ad := range x.FPAds {
			p.rememberFingerprint(simnet.NodeID(ad.ID), ad.FP)
		}
	}
	buf := &p.buffer
	if p.par.Topics {
		buf = nil
		if g := p.group(x.Topic); g != nil {
			buf = g.buffer
			for _, ad := range x.Ads {
				g.view.AddAged(membership.Entry{ID: simnet.NodeID(ad.ID), Age: int(ad.Age)})
			}
		}
	}
	next := uint8(0) // the relay's hop; 0: only big events flood
	if hop > 0 && hop < EagerHops {
		next = hop + 1
	}
	var relay *[]*pubsub.Event
	if buf != nil && !p.FreeRide && (next > 0 || p.flat()) {
		out.sel = out.sel[:0]
		relay = &out.sel
	}
	novel, dup := p.admitEvents(from, buf, b, relay, next > 0)
	if relay != nil && len(out.sel) > 0 {
		p.spread(out, x.Topic, out.sel, nil, next)
	}
	return novel, dup + x.Pad
}

// admitEvents admits a batch from peer from, keeping what is new in buf
// (nil: deliver only) and in the archive, and returns the bytes that were
// news and the bytes that were not. A duplicate — most of what push gossip
// delivers — costs a seen-set probe and a count towards retiring the
// peer's own copy (Buffer.Duplicate). With relay set, a new event — every
// one when all is set, otherwise a big one — is appended to *relay and
// marked sent, unless this peer has already sent it (Buffer.FirstSend).
func (p *Peer) admitEvents(from simnet.NodeID, buf *gossip.Buffer, b Batch, relay *[]*pubsub.Event, all bool) (novel, dup int) {
	p.heard(from)
	a := p.archive()
	for i, n := 0, b.Len(); i < n; i++ {
		id, size := b.Head(i)
		if !p.seen.Add(id) {
			dup += size
			if buf != nil {
				buf.Duplicate(id, p.batch)
			}
			continue
		}
		ev := b.Event(i)
		if ev == nil {
			continue
		}
		novel += size
		if a != nil {
			a.Insert(ev)
		}
		if buf != nil {
			buf.Insert(ev)
			if relay != nil && (all || gossip.Big(ev)) {
				if e, ok := buf.FirstSend(id); ok {
					*relay = append(*relay, e)
				}
			}
		}
		p.deliver(ev)
	}
	return novel, dup
}
