// Package protocol is the FairGossip peer, written once: Fig. 4's push
// round steered by §5.2's two levers, the Cyclon exchange that feeds it
// partners, and the failure detector and join back-off that ride on that
// exchange. A Peer is a single-threaded state machine with no clock,
// goroutine, socket or lock in it; internal/core drives it under the
// discrete-event simulator, internal/live on a goroutine behind a real
// transport.
//
// # Driver contract
//
// The driver owns time, the network and the encoding; the Peer owns every
// protocol decision and is not synchronised: one caller at a time.
//
//   - Calls: Tick once a gossip period, then Adapt; every other input
//     (Subscribe, Unsubscribe, Publish, RecvEvents, RecvMembership, Join,
//     Leave) at any time between Ticks. A driver with a push step of its
//     own (core's topic groups and semantic bias) calls Maintain, runs
//     Select and Partners over its own buffers, then Adapt — it never
//     re-implements selection or admission: Publish, Select and
//     RecvEvents take the buffer the events are kept in for forwarding,
//     be it Buffer(), a topic group's, or nil to deliver only.
//   - Buffers: an input that takes an *Out overwrites the part it
//     produces, and the driver sends out.Sends in order, then out.Events
//     to each of out.Targets, before its next call. Events, Targets and
//     a Send's Entries are scratch that dies at that call: a driver
//     copies what it keeps in flight.
//   - Charges: the Peer books what no encoding changes — a publication, a
//     delivery, the filter count. The driver books every send
//     (Ledger.AddSend, with the size it alone knows) before Adapt, whose
//     window reads the account, and books the novelty audit RecvEvents
//     returns against the sender: the one write aimed at another peer's
//     account, which the sharded simulator defers to a barrier.
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
	Events  []*pubsub.Event // the round's batch
	Targets []simnet.NodeID // the partners it goes to
	Sends   []Send          // membership messages, in sending order

	ents []wire.ViewEntry // the Sends' entries, back to back
}

// Send is one membership message, its entries already the wire's.
type Send struct {
	Kind    Kind
	To      simnet.NodeID
	Entries []wire.ViewEntry
}

func (o *Out) reset() { o.Sends, o.ents = o.Sends[:0], o.ents[:0] }

// send queues a membership message, converting its entries into the
// wire's (ages saturate at 65535) in o's scratch.
func (o *Out) send(kind Kind, to simnet.NodeID, entries []membership.Entry) {
	start := len(o.ents)
	for _, e := range entries {
		o.ents = append(o.ents, wire.ViewEntry{ID: uint32(e.ID), Age: uint16(min(e.Age, math.MaxUint16))})
	}
	o.Sends = append(o.Sends, Send{Kind: kind, To: to, Entries: o.ents[start:len(o.ents):len(o.ents)]})
}

// Batch is a received gossip message as its driver holds it — decoded
// events in the simulator, validated records over the receive buffer in
// the live runtime. Head returns the i-th event's id and encoded size;
// Event materialises it into one the peer may keep (nil: skip it), and is
// asked at most once, only for an id that passed the seen-set — so a
// driver that receives bytes decodes an event once per peer, not per copy.
type Batch interface {
	Len() int
	Head(i int) (pubsub.EventID, int)
	Event(i int) *pubsub.Event
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
}

func (p *Peer) ID() simnet.NodeID           { return p.id }
func (p *Peer) Fanout() int                 { return p.fanout } // the lever F_i
func (p *Peer) Batch() int                  { return p.batch }  // the lever N_i
func (p *Peer) Rounds() int                 { return p.round }  // gossip periods run so far
func (p *Peer) Interest() *pubsub.Interest  { return &p.interest }
func (p *Peer) Buffer() *gossip.Buffer      { return &p.buffer }           // the flat overlay's event buffer
func (p *Peer) Rand() *rand.Rand            { return &p.rng.Rand }         // for a driver whose own round logic draws from the same stream
func (p *Peer) Seen(id pubsub.EventID) bool { return p.seen.Contains(id) } // published or admitted here (within SeenCap)

// View returns the Cyclon partial view, or nil under the full sampler.
func (p *Peer) View() *membership.View {
	if p.ov == nil {
		return nil
	}
	return p.ov.cyclon.View()
}

// Subscribe registers a filter and returns its subscription ID.
func (p *Peer) Subscribe(f pubsub.Filter) pubsub.SubID {
	id := p.interest.Subscribe(f)
	p.ledger.SetFilters(int(p.id), p.interest.Count())
	return id
}

// Unsubscribe removes a subscription.
func (p *Peer) Unsubscribe(id pubsub.SubID) bool {
	ok := p.interest.Unsubscribe(id)
	p.ledger.SetFilters(int(p.id), p.interest.Count())
	return ok
}

// Publish originates an event: charged, marked seen, delivered locally if
// it matches, and kept in buf for forwarding (nil: the driver forwards it
// some other way).
func (p *Peer) Publish(buf *gossip.Buffer, topic string, attrs []pubsub.Attr, payload []byte) *pubsub.Event {
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
	if buf != nil {
		buf.Insert(ev)
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

// Tick runs one gossip period up to the sends: membership maintenance,
// then the push step.
func (p *Peer) Tick(out *Out) {
	p.Maintain(out)
	p.Push(out)
}

// Maintain opens a round: every ShuffleEvery-th one initiates a Cyclon
// shuffle (free-riders too), leaving the offer in out.Sends.
func (p *Peer) Maintain(out *Out) {
	out.reset()
	p.round++
	if p.ov != nil && p.round%p.par.ShuffleEvery == 0 {
		p.shuffle(out)
	}
}

// Push is Fig. 4's round over the flat overlay: SELECTEVENTS into
// out.Events, SELECTPARTICIPANTS into out.Targets (empty when there is
// nothing to send), and the buffer ages by one round — a free-rider's
// too, so it does not hoard a backlog to replay on reform.
func (p *Peer) Push(out *Out) {
	out.Events, out.Targets = out.Events[:0], out.Targets[:0]
	if !p.FreeRide && len(p.Select(&p.buffer, out)) > 0 {
		p.Partners(p.fanout, out)
	}
	p.buffer.Tick()
}

// Select picks this round's batch — at most the batch lever — from buf
// into out.Events.
func (p *Peer) Select(buf *gossip.Buffer, out *Out) []*pubsub.Event {
	return buf.SelectInto(p.Rand(), &out.Events, p.batch, p.par.Policy)
}

// Partners draws up to k distinct partners from the membership substrate
// into out.Targets.
func (p *Peer) Partners(k int, out *Out) []simnet.NodeID {
	if p.ov != nil {
		out.Targets = p.ov.cyclon.View().SampleInto(p.Rand(), k, out.Targets)
	} else {
		out.Targets = p.full.SamplePeersInto(p.Rand(), k, out.Targets)
	}
	return out.Targets
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
	w := p.ledger.Weights()
	p.fanout, p.batch = p.ctl.ctrl.Update(adaptive.Sample{
		Benefit:      fairness.Benefit(delta, w),
		Contribution: fairness.Contribution(delta, w),
	})
}

// RecvEvents admits a gossip batch from peer from, keeping what is new in
// buf (nil: deliver only), and returns the novelty audit (§5.2 bias
// resistance): the bytes that were news and the bytes that were not. A
// duplicate — most of what push gossip delivers — costs a seen-set probe
// and a count towards retiring the peer's own copy (Buffer.Duplicate).
func (p *Peer) RecvEvents(from simnet.NodeID, buf *gossip.Buffer, b Batch) (novel, dup int) {
	p.heard(from)
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
		if buf != nil {
			buf.Insert(ev)
		}
		p.deliver(ev)
	}
	return novel, dup
}
