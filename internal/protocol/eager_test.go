package protocol

import (
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

// checkPush fails unless msgs is one eager push of exactly want, in
// full, to fanout distinct partners, drawn and dressed as mode's round
// would: one message to view members with no parts (flat), one to group
// members with the topic and ads (topics), or one a partner, each with an
// interest fingerprint (semantic). Padding is there exactly when the peer
// cheats.
func checkPush(t *testing.T, p *Peer, mode string, msgs []Outgoing, want ...*pubsub.Event) {
	t.Helper()
	var to []simnet.NodeID
	for _, m := range msgs {
		if m.Kind != wire.KindEvents || !slices.Equal(m.Events, want) {
			t.Fatalf("%s: pushed kind %d with %v, want KindEvents with %v", mode, m.Kind, m.Events, want)
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
// partners — in every push mode, as that mode's round would, padded only
// by a cheat — and marks it sent, so no second eager push follows. A
// free-rider's publication leaves nothing, and under topic groups a
// publisher outside the group hands the event to a walk instead.
func TestPublishPushesAtOnce(t *testing.T) {
	for _, mode := range pushModes {
		for _, cheat := range []bool{false, true} {
			p := modePeer(mode)
			p.Cheat = cheat
			var out Out
			ev := p.Publish("t", nil, []byte("x"), &out)
			checkPush(t, p, mode, gossipIn(&out), ev)
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

// TestFirstHopRelaysOnce: a peer relays at once, in one push, the new
// events of a gossip message whose sender published them — the second
// hop — and only those; a copy it has had before, from the publisher or
// anyone, and a pull answer for an event it already holds, are relayed no
// more. An event pulled back from its publisher after a lazy push is
// relayed when it arrives; a relay is never lazy, even of a big event in
// a lazy push's full part. A free-rider relays nothing, and only a cheat
// pads. All three push modes.
func TestFirstHopRelaysOnce(t *testing.T) {
	for _, mode := range pushModes {
		for _, cheat := range []bool{false, true} {
			p := modePeer(mode)
			p.Cheat = cheat
			tag := &wire.Parts{Topic: "t"}
			var out Out
			gossip := func(from simnet.NodeID, evs ...*pubsub.Event) []Outgoing {
				p.Recv(from, In{Kind: wire.KindEvents, Parts: tag, Events: &events{evs: evs}}, &out)
				return gossipIn(&out)
			}

			// Only the sender's own events are relayed.
			own, relayed := event(5, 1), event(7, 1)
			checkPush(t, p, mode, gossip(5, own, relayed), own)
			// Copies from the publisher, or from anyone, are not.
			if msgs := gossip(5, own, event(7, 1)); len(msgs) != 0 {
				t.Fatalf("%s: a repeated copy was relayed: %+v", mode, msgs)
			}
			if msgs := gossip(7, relayed); len(msgs) != 0 {
				t.Fatalf("%s: the publisher's copy of an event held already was relayed: %+v", mode, msgs)
			}

			// A lazy push's ids are pulled; the publisher's answer is
			// relayed once, in full, and a second answer not at all.
			big, lazy := bigEvent(5, 2), bigEvent(5, 3)
			lx := &wire.Parts{Topic: "t", IDs: []pubsub.EventID{lazy.ID}}
			p.Recv(5, In{Kind: wire.KindLazy, Parts: lx, Events: &events{evs: []*pubsub.Event{big}}}, &out)
			checkPush(t, p, mode, gossipIn(&out), big)
			if !slices.ContainsFunc(out.Msgs, func(m Outgoing) bool { return m.Kind == wire.KindPull }) {
				t.Fatalf("%s: the lazy id was not pulled: %+v", mode, out.Msgs)
			}
			checkPush(t, p, mode, gossip(5, lazy), lazy)
			if msgs := gossip(5, lazy); len(msgs) != 0 {
				t.Fatalf("%s: a second pull answer was relayed: %+v", mode, msgs)
			}

			// A free-rider relays nothing.
			p.FreeRide = true
			if msgs := gossip(5, event(5, 4)); len(msgs) != 0 {
				t.Fatalf("%s: a free-rider relayed %+v", mode, msgs)
			}
		}
	}
}

// TestBigEventsFloodOnce: over the flat overlay a peer relays a new big
// event at once, in full, whoever sent it — a pull answer included — and
// at most once, however many copies, lazy ids and answers follow; its
// rounds then carry only the id. A small event from someone other than
// its publisher is not relayed, a free-rider relays nothing, and only a
// cheat pads. Topic groups and semantic bias, whose rounds send no ids,
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
			checkPush(t, p, mode, msgs, big)

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
			checkPush(t, p, mode, hear(wire.KindEvents, 6, nil, pulled), pulled)
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
