package protocol

import (
	"slices"
	"testing"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// wiring hand-wires peers through their Outs, with no simulator: every
// message a peer emits is copied and queued per target, and run delivers
// the queue in order, posting whatever each delivery answers.
type wiring struct {
	peers []*Peer
	queue []parcel
	log   []parcel // what run delivered, in order
	out   Out
}

type parcel struct {
	from, to simnet.NodeID
	m        wire.Msg
}

// newWiring builds n peers under the full sampler over the n of them, with
// the given extensions.
func newWiring(n int, par Params) *wiring {
	par.ViewCap = 0
	w := &wiring{}
	ledger := fairness.NewLedger(n, fairness.DefaultWeights())
	for id := range n {
		p := new(Peer)
		p.Init(simnet.NodeID(id), n, &par, int64(id)+1, ledger)
		w.peers = append(w.peers, p)
	}
	return w
}

// post queues what peer from's last input left in w.out.
func (w *wiring) post(from simnet.NodeID) {
	for _, o := range w.out.Msgs {
		m := o.Msg
		m.Events, m.Entries = slices.Clone(m.Events), slices.Clone(m.Entries)
		if m.Parts != nil {
			x := *m.Parts
			m.Parts = &x
		}
		for _, to := range o.To {
			w.queue = append(w.queue, parcel{from, to, m})
		}
	}
}

// run delivers until nothing is in flight and returns the kinds delivered,
// in order.
func (w *wiring) run() []Kind {
	var kinds []Kind
	for len(w.queue) > 0 {
		pc := w.queue[0]
		w.queue = w.queue[1:]
		kinds = append(kinds, pc.m.Kind)
		w.log = append(w.log, pc)
		in := In{Kind: pc.m.Kind, Hop: pc.m.Hop, Entries: pc.m.Entries, Parts: pc.m.Parts, Events: &events{evs: pc.m.Events}}
		if _, _, ok := w.peers[pc.to].Recv(pc.from, in, &w.out); !ok {
			panic("a peer left a kind its own Params send unhandled")
		}
		w.post(pc.to)
	}
	return kinds
}

// TestExtensionsThroughOut: the simulator's extensions run in the peer
// alone. Four peers wired by hand join a topic group by a subscription
// walk and reach it by a publication walk; two answer a digest with a pull
// and the pull with the events.
func TestExtensionsThroughOut(t *testing.T) {
	t.Run("topic groups", func(t *testing.T) {
		par := livelike()
		par.Topics = true
		w := newWiring(4, par)
		w.peers[1].Subscribe(pubsub.Topic("t"), &w.out) // the first member: its walk finds nobody
		w.post(1)
		w.run()
		relays := func() (n int) {
			for _, p := range w.peers {
				n += int(p.WalkRelays())
			}
			return n
		}
		before := relays()
		w.peers[2].Subscribe(pubsub.Topic("t"), &w.out)
		w.post(2)
		kinds := w.run()
		if kinds[0] != wire.KindSubWalk || kinds[len(kinds)-1] != wire.KindSubAck {
			t.Fatalf("a subscription delivered %v, want a walk that ends in an ack", kinds)
		}
		if !w.peers[1].GroupView("t").Contains(2) || !w.peers[2].GroupView("t").Contains(1) {
			t.Fatalf("after the walk the members' views are %v and %v", w.peers[1].GroupView("t").IDs(), w.peers[2].GroupView("t").IDs())
		}
		if hops := len(kinds) - 1; relays()-before != hops-1 || w.peers[3].GroupView("t") != nil {
			t.Fatalf("a walk of %d hops counted %d relays, or a relay joined the group", hops, relays()-before)
		}

		ev := w.peers[3].Publish("t", nil, []byte("x"), &w.out) // not a member: a publication walk
		w.post(3)
		if kinds := w.run(); slices.ContainsFunc(kinds, func(k Kind) bool { return k != wire.KindPubWalk }) {
			t.Fatalf("a publication delivered %v, want walk hops only", kinds)
		}
		if got := w.peers[1].Seen(ev.ID) || w.peers[2].Seen(ev.ID); !got || w.peers[3].ledger.Account(3).Delivered != 0 {
			t.Fatal("the publication walk did not reach the group, or the publisher delivered its own event")
		}
		delivered := w.peers[1].ledger.Account(1).Delivered + w.peers[2].ledger.Account(2).Delivered
		if delivered != 1 {
			t.Fatalf("the group delivered the hand-off %d times, want once", delivered)
		}
	})

	t.Run("push-pull", func(t *testing.T) {
		par := livelike()
		par.AntiEntropy = 1
		w := newWiring(2, par)
		a, b := w.peers[0], w.peers[1]
		b.Subscribe(pubsub.MatchAll(), &w.out)
		a.FreeRide = true // no push: only anti-entropy moves the event
		ev := a.Publish("t", nil, []byte("x"), &w.out)
		a.Tick(&w.out)
		w.post(0)
		// The answer is a round's gossip, not an eager push: b relays
		// nothing of it.
		if kinds := w.run(); !slices.Equal(kinds, []Kind{wire.KindDigest, wire.KindPull, wire.KindEvents}) {
			t.Fatalf("anti-entropy delivered %v, want a digest, a pull and the events", kinds)
		}
		if !b.Seen(ev.ID) || b.ledger.Account(1).Delivered != 1 {
			t.Fatal("the pulled event was not delivered")
		}
	})
}

// TestSubWalkBackAtOriginEnds: a subscription walk that wanders back to
// the peer that started it ends there. The originator is a member
// already; acking itself would be a charged message to itself, and
// adopting itself is no news.
func TestSubWalkBackAtOriginEnds(t *testing.T) {
	par := livelike()
	par.Topics = true
	w := newWiring(3, par)
	p := w.peers[1]
	p.Subscribe(pubsub.Topic("t"), &w.out)
	w.out.reset()
	view := p.GroupView("t").IDs()
	before := p.ledger.Account(1).BytesSent
	walk := &wire.Parts{Topic: "t", Origin: 1, Hops: 3}
	if _, _, ok := p.Recv(2, In{Kind: wire.KindSubWalk, Parts: walk, Events: &events{}}, &w.out); !ok {
		t.Fatal("a subscription walk went unhandled")
	}
	if len(w.out.Msgs) != 0 {
		t.Fatalf("the walk's originator answered its own walk with %+v", w.out.Msgs)
	}
	if got := p.ledger.Account(1).BytesSent; got != before {
		t.Fatalf("the originator was charged %v for its own walk, want %v", got, before)
	}
	if got := p.GroupView("t").IDs(); !slices.Equal(got, view) {
		t.Fatalf("the group view went %v -> %v", view, got)
	}
}
