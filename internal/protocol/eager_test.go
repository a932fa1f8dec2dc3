package protocol

import (
	"math"
	"slices"
	"testing"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// pushModes are the three ways a peer draws the partners it pushes to.
var pushModes = []string{"flat", "topics", "semantic"}

// modePeer is peer 0 in the given push mode, subscribed to topic "t" and
// with peers to push to: 1–6 in its view (flat), 1–6 in its view and
// the group view of "t" (topics), or the whole population through the
// full sampler under semantic bias.
func modePeer(mode string) *Peer {
	par := livelike()
	par.ShuffleEvery = 1 << 20
	switch mode {
	case "topics":
		par.Topics = true
	case "semantic":
		par.ViewCap, par.SemanticBias = 0, 0.5
	}
	p := newPeer(0, &par, newLedger())
	p.Subscribe(pubsub.Topic("t"), &Out{}) // the view is empty: no walk leaves
	for id := simnet.NodeID(1); id <= 6; id++ {
		if v := p.View(); v != nil {
			v.Add(id)
		}
		if g := p.GroupView("t"); g != nil {
			g.Add(id)
		}
	}
	return p
}

// gossipIn returns the gossip messages in out: those charged as
// application traffic.
func gossipIn(out *Out) []Outgoing {
	var msgs []Outgoing
	for _, m := range out.Msgs {
		if m.Class == fairness.ClassApp {
			msgs = append(msgs, m)
		}
	}
	return msgs
}

// checkPush fails unless msgs is one push of exactly want, in full, to
// fanout distinct partners, drawn and dressed as mode's round would: one
// message to view members with no parts (flat), one to group members with
// the topic and ads (topics), or one a partner, each with an interest
// fingerprint (semantic). It is an eager push of the given hop, or with
// hop 0 a round's KindEvents (a big event's flood). Padding is there
// exactly when the peer cheats.
func checkPush(t *testing.T, p *Peer, mode string, msgs []Outgoing, hop uint8, want ...*pubsub.Event) {
	t.Helper()
	kind := wire.KindEager
	if hop == 0 {
		kind = wire.KindEvents
	}
	var to []simnet.NodeID
	for _, m := range msgs {
		if m.Kind != kind || m.Hop != hop || !slices.Equal(m.Events, want) {
			t.Fatalf("%s: pushed kind %d hop %d with %v, want kind %d hop %d with %v", mode, m.Kind, m.Hop, m.Events, kind, hop, want)
		}
		x := m.Opt()
		if p.Cheat && x.Pad != JunkPadding || !p.Cheat && x.Pad != 0 {
			t.Fatalf("%s: padding %d, cheat %v", mode, x.Pad, p.Cheat)
		}
		switch mode {
		case "flat":
			if m.Parts != nil && !p.Cheat {
				t.Fatalf("flat: an honest push carries parts %+v", m.Parts)
			}
		case "topics":
			if x.Topic != "t" || len(x.Ads) == 0 {
				t.Fatalf("topics: push tagged %q with ads %v, want topic t and the group's ads", x.Topic, x.Ads)
			}
		case "semantic":
			if x.FP == 0 || len(m.To) != 1 {
				t.Fatalf("semantic: a push to %v with fingerprint %x, want one partner and a fingerprint", m.To, x.FP)
			}
		}
		to = append(to, m.To...)
	}
	if mode != "semantic" && len(msgs) != 1 {
		t.Fatalf("%s: %d gossip messages, want one push", mode, len(msgs))
	}
	if len(to) != p.Fanout() {
		t.Fatalf("%s: pushed to %v, want %d partners", mode, to, p.Fanout())
	}
	hi := simnet.NodeID(6) // the view's or the group's last member
	if mode == "semantic" {
		hi = population - 1
	}
	for i, q := range to {
		if q == p.ID() || slices.Contains(to[:i], q) || q < 1 || q > hi {
			t.Fatalf("%s: bad partners %v", mode, to)
		}
	}
}

// TestPublishPushesAtOnce: Publish sends the new event at once to fanout
// partners as an eager push of hop 1 — in every push mode, as that mode's
// round would, padded only by a cheat — and marks it sent, so no second
// eager push follows. A free-rider's publication leaves nothing, and
// under topic groups a publisher outside the group hands the event to a
// walk instead.
func TestPublishPushesAtOnce(t *testing.T) {
	for _, mode := range pushModes {
		for _, cheat := range []bool{false, true} {
			p := modePeer(mode)
			p.Cheat = cheat
			var out Out
			ev := p.Publish("t", nil, []byte("x"), &out)
			checkPush(t, p, mode, gossipIn(&out), 1, ev)
			if mode != "topics" { // the group's buffer is not the flat one
				if _, again := p.Buffer().FirstSend(ev.ID); again {
					t.Fatalf("%s: the published event is still unsent after its push", mode)
				}
			}

			p.FreeRide = true
			p.Publish("t", nil, []byte("y"), &out)
			if len(out.Msgs) != 0 {
				t.Fatalf("%s: a free-rider's publish sent %+v", mode, out.Msgs)
			}
		}
	}
	p := modePeer("topics")
	var out Out
	p.Publish("elsewhere", nil, []byte("x"), &out)
	if len(out.Msgs) != 1 || out.Msgs[0].Kind != wire.KindPubWalk {
		t.Fatalf("a publisher outside the group sent %+v, want one publication walk", out.Msgs)
	}
}

// TestFirstHopRelaysOnce: a peer relays at once, in one eager push of hop
// h+1, every new event of a hop-h eager push while h < EagerHops — whoever
// published it — and only those; a copy it has had before, eager or not,
// is relayed no more. A hop-EagerHops push, a round push and a pull
// answer are delivered and relay nothing (but a new big event over the
// flat overlay, which floods as a round's gossip). A relay is never lazy.
// A free-rider relays nothing, and only a cheat pads. All three push
// modes.
func TestFirstHopRelaysOnce(t *testing.T) {
	for _, mode := range pushModes {
		for _, cheat := range []bool{false, true} {
			p := modePeer(mode)
			p.Cheat = cheat
			var out Out
			hear := func(kind Kind, hop uint8, from simnet.NodeID, ids []pubsub.EventID, evs ...*pubsub.Event) []Outgoing {
				p.Recv(from, In{Kind: kind, Hop: hop, Parts: &wire.Parts{Topic: "t", IDs: ids}, Events: &events{evs: evs}}, &out)
				return gossipIn(&out)
			}
			delivered := func() uint64 { return p.ledger.Account(0).Delivered }

			// Every new event of an eager push is relayed, one hop on.
			var a, b *pubsub.Event
			for hop := uint8(1); hop < EagerHops; hop++ {
				a, b = event(5, uint32(hop)), event(7, uint32(hop))
				checkPush(t, p, mode, hear(wire.KindEager, hop, 5, nil, a, b), hop+1, a, b)
			}
			// Copies, eager or not, from the publisher or anyone, are not.
			if msgs := hear(wire.KindEager, 1, 7, nil, a, b); len(msgs) != 0 {
				t.Fatalf("%s: a repeated copy was relayed: %+v", mode, msgs)
			}
			// The last eager hop, a round push and a pull answer deliver
			// their new events and relay none.
			for _, k := range []Kind{wire.KindEager, wire.KindEvents} {
				n := delivered()
				if msgs := hear(k, EagerHops, 5, nil, event(5, uint32(40+k))); len(msgs) != 0 || delivered() != n+1 {
					t.Fatalf("%s: kind %d at hop %d relayed %+v, delivered %d", mode, k, EagerHops, msgs, delivered()-n)
				}
			}

			// A lazy push's full events are a round's: a big one floods
			// over the flat overlay, as gossip of hop 0, and nothing else
			// is relayed; its ids are pulled, and the answer relays the
			// same way.
			big, lazy := bigEvent(5, 20), bigEvent(5, 21)
			msgs := hear(wire.KindLazy, 0, 5, []pubsub.EventID{lazy.ID}, big, event(5, 22))
			if !slices.ContainsFunc(out.Msgs, func(m Outgoing) bool { return m.Kind == wire.KindPull }) {
				t.Fatalf("%s: the lazy id was not pulled: %+v", mode, out.Msgs)
			}
			flood := func(msgs []Outgoing, ev *pubsub.Event) {
				if mode == "flat" {
					checkPush(t, p, mode, msgs, 0, ev)
				} else if len(msgs) != 0 {
					t.Fatalf("%s: a lazy push or its answer was relayed: %+v", mode, msgs)
				}
			}
			flood(msgs, big)
			flood(hear(wire.KindEvents, 0, 5, nil, lazy), lazy)
			if msgs := hear(wire.KindEager, 1, 5, nil, lazy); len(msgs) != 0 {
				t.Fatalf("%s: an eager copy of a pulled event was relayed: %+v", mode, msgs)
			}

			// A free-rider relays nothing.
			p.FreeRide = true
			if msgs := hear(wire.KindEager, 1, 5, nil, event(5, 30)); len(msgs) != 0 {
				t.Fatalf("%s: a free-rider relayed %+v", mode, msgs)
			}
		}
	}
}

// TestEagerHopsOnARing: on a fixed topology — 32 peers, each with the
// next three in its view and fanout 3 — a publication that only eager
// pushes move reaches exactly the peers within EagerHops hops of its
// publisher. Every eager push's hop is its shortest distance from the
// publisher, so sends stop after EagerHops hops; every peer sends at most
// one push of the event, and one whose first copy came at hop EagerHops
// delivers it and sends none. A free-rider delivers and sends nothing,
// and hostile hops (0, 255) cost at most one relay per peer.
func TestEagerHopsOnARing(t *testing.T) {
	const n, fanout = 32, 3
	ring := func(freeRider simnet.NodeID) *wiring {
		par := livelike()
		par.Fanout, par.ShuffleEvery = fanout, 1<<20
		w := &wiring{}
		ledger := fairness.NewLedger(n, fairness.DefaultWeights())
		for id := range simnet.NodeID(n) {
			p := new(Peer)
			p.Init(id, n, &par, int64(id)+1, ledger)
			p.Subscribe(pubsub.MatchAll(), &Out{})
			for d := simnet.NodeID(1); d <= fanout; d++ {
				p.View().Add((id + d) % n)
			}
			p.FreeRide = id == freeRider
			w.peers = append(w.peers, p)
		}
		return w
	}
	// sends counts each peer's eager pushes of the event and checks each
	// push's hop against its sender's distance from the publisher, peer 0.
	sends := func(w *wiring) []int {
		sent := make([]int, n)
		for _, pc := range w.log[fanout:] { // the first fanout are the publication's
			if pc.m.Kind != wire.KindEager || int(pc.m.Hop) != (int(pc.from)+fanout-1)/fanout+1 || pc.m.Hop > EagerHops {
				t.Fatalf("peer %d sent kind %d hop %d", pc.from, pc.m.Kind, pc.m.Hop)
			}
			sent[pc.from]++
		}
		for i := range sent {
			sent[i] /= fanout // one push to fanout partners
		}
		return sent
	}

	w := ring(simnet.None)
	ev := w.peers[0].Publish("t", nil, []byte("x"), &w.out)
	w.post(0)
	w.run()
	sent := sends(w)
	for id := 1; id < n; id++ {
		dist := (id + fanout - 1) / fanout
		wantSeen, wantSent := dist <= EagerHops, 0
		if dist < EagerHops {
			wantSent = 1
		}
		if w.peers[id].Seen(ev.ID) != wantSeen || sent[id] != wantSent {
			t.Fatalf("peer %d, %d hops out: seen %v, sent %d pushes; want %v and %d", id, dist, w.peers[id].Seen(ev.ID), sent[id], wantSeen, wantSent)
		}
	}

	// A free-rider delivers what reaches it and sends nothing.
	w = ring(2)
	w.peers[0].Publish("t", nil, []byte("x"), &w.out)
	w.post(0)
	w.run()
	if sent := sends(w); sent[2] != 0 || w.peers[2].ledger.Account(2).Delivered != 1 {
		t.Fatalf("the free-rider sent %d pushes and delivered %d events", sent[2], w.peers[2].ledger.Account(2).Delivered)
	}

	// Hostile hops: a hop-255 push of a new event is delivered and not
	// relayed; a hop-0 push reads as the publisher's and is relayed once,
	// at hop 2, however many hop-0 and hop-255 copies follow.
	p, out := w.peers[n-1], &w.out
	far, near := event(9, 1), event(9, 2)
	for i, c := range []struct {
		hop    uint8
		ev     *pubsub.Event
		relays int
	}{{math.MaxUint8, far, 0}, {0, far, 0}, {0, near, 1}, {0, near, 0}, {math.MaxUint8, near, 0}} {
		p.Recv(simnet.NodeID(i), In{Kind: wire.KindEager, Hop: c.hop, Events: &events{evs: []*pubsub.Event{c.ev}}}, out)
		msgs := gossipIn(out)
		if len(msgs) != c.relays || c.relays == 1 && (msgs[0].Hop != 2 || !slices.Equal(msgs[0].Events, []*pubsub.Event{c.ev})) || !p.Seen(c.ev.ID) {
			t.Fatalf("push %d, hop %d: sent %+v, want %d relays at hop 2", i, c.hop, msgs, c.relays)
		}
	}
}

// TestBigEventsFloodOnce: over the flat overlay a peer relays a new big
// event at once, in full, whoever sent it — a pull answer included — and
// at most once, however many copies, lazy ids and answers follow; its
// rounds then carry only the id. A small event in a round's gossip is not
// relayed, a free-rider relays nothing, and only a cheat pads. Topic groups and semantic bias, whose rounds send no ids,
// do not flood.
func TestBigEventsFloodOnce(t *testing.T) {
	for _, mode := range pushModes {
		for _, cheat := range []bool{false, true} {
			p := modePeer(mode)
			p.Cheat = cheat
			var out Out
			hear := func(kind Kind, from simnet.NodeID, ids []pubsub.EventID, evs ...*pubsub.Event) []Outgoing {
				p.Recv(from, In{Kind: kind, Parts: &wire.Parts{Topic: "t", IDs: ids}, Events: &events{evs: evs}}, &out)
				return gossipIn(&out)
			}

			big, small := bigEvent(7, 1), event(7, 2)
			msgs := hear(wire.KindEvents, 5, nil, big, small)
			if mode != "flat" {
				if len(msgs) != 0 {
					t.Fatalf("%s: a big event from a non-publisher was relayed: %+v", mode, msgs)
				}
				continue
			}
			checkPush(t, p, mode, msgs, 0, big)

			// Copies, from anyone, and lazy ids of it are not relayed.
			for _, from := range []simnet.NodeID{5, 7, 6} {
				if msgs := hear(wire.KindEvents, from, nil, big); len(msgs) != 0 {
					t.Fatalf("a copy from %d was relayed: %+v", from, msgs)
				}
			}
			if hear(wire.KindLazy, 6, []pubsub.EventID{big.ID}); len(out.Msgs) != 0 {
				t.Fatalf("a lazy id of a held event sent %+v", out.Msgs)
			}

			// An event announced by id is pulled; the answer is relayed
			// once, in full, and a second answer not at all.
			pulled := bigEvent(8, 1)
			if msgs := hear(wire.KindLazy, 6, []pubsub.EventID{pulled.ID}); len(msgs) != 0 || len(out.Msgs) != 1 || out.Msgs[0].Kind != wire.KindPull {
				t.Fatalf("a lazy id of a new event sent %+v, want one pull", out.Msgs)
			}
			checkPush(t, p, mode, hear(wire.KindEvents, 6, nil, pulled), 0, pulled)
			if msgs := hear(wire.KindEvents, 6, nil, pulled); len(msgs) != 0 {
				t.Fatalf("a second pull answer was relayed: %+v", msgs)
			}

			// The round carries the big events by id only.
			p.Tick(&out)
			if msgs := gossipIn(&out); len(msgs) != 1 || msgs[0].Kind != wire.KindLazy || !slices.Equal(msgs[0].Events, []*pubsub.Event{small}) ||
				len(msgs[0].Opt().IDs) != 2 || !slices.Contains(msgs[0].Opt().IDs, big.ID) || !slices.Contains(msgs[0].Opt().IDs, pulled.ID) {
				t.Fatalf("the round pushed %+v, want the small event and the two big ones' ids", msgs)
			}

			// A free-rider relays nothing.
			p.FreeRide = true
			if msgs := hear(wire.KindEvents, 5, nil, bigEvent(7, 3)); len(msgs) != 0 {
				t.Fatalf("a free-rider relayed %+v", msgs)
			}
		}
	}
}
