package live

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/protocol"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// pushed runs one of p's ticks and returns the partners its push went to.
func pushed(p *peer) []simnet.NodeID {
	p.m.Tick(&p.out)
	for _, m := range p.out.Msgs {
		if m.Kind == wire.KindEvents {
			return m.To
		}
	}
	return nil
}

// TestLiveSamplePeersZeroAlloc: SELECTPARTICIPANTS used to build a
// map[int]struct{} plus a fresh slice on every round of every peer; a
// tick's partner draw, and the push it feeds, must allocate nothing once
// the scratch buffers are warm.
func TestLiveSamplePeersZeroAlloc(t *testing.T) {
	c := mustCluster(t, Config{N: 32, Fanout: 5, BufferMaxAge: 1 << 20, ShuffleEvery: 1 << 20, Seed: 21})
	c.Publish(0, "t", nil, []byte("x"))
	p := c.peerAt(0)
	if got := pushed(p); len(got) != 5 { // and warm the scratch buffers
		t.Fatalf("pushed to %v, want 5 partners", got)
	}
	if avg := testing.AllocsPerRun(200, func() { pushed(p) }); avg != 0 {
		t.Fatalf("a tick's partner draw allocates %.2f times, want 0", avg)
	}
}

// TestLiveSamplePeersDrawsFromTheView: partner selection reads the
// peer's partial view only — distinct partners, never self, every one
// a current view member, and an oversized fanout is capped at the view
// size (not the population: nothing on this path may know the population).
func TestLiveSamplePeersDrawsFromTheView(t *testing.T) {
	for _, fanout := range []int{4, 99} {
		c := mustCluster(t, Config{N: 40, ViewCap: 8, Fanout: fanout, BufferMaxAge: 1 << 20, ShuffleEvery: 1 << 20, Seed: 22})
		c.Publish(3, "t", nil, nil)
		p := c.peerAt(3)
		view := map[int]bool{}
		for _, q := range p.m.View().IDs() {
			view[int(q)] = true
		}
		for trial := 0; trial < 200; trial++ {
			got := pushed(p)
			if want := min(fanout, len(view)); len(got) != want {
				t.Fatalf("fanout %d: sampled %d peers, want %d", fanout, len(got), want)
			}
			seen := map[int]bool{}
			for _, q := range got {
				if q == 3 {
					t.Fatal("sampled self")
				}
				if !view[int(q)] {
					t.Fatalf("peer %d is not in the view %v", q, view)
				}
				if seen[int(q)] {
					t.Fatalf("duplicate peer %d", q)
				}
				seen[int(q)] = true
			}
		}
	}
}

// TestLiveRoundPathAllocs pins the steady-state allocation budget of
// the full round path (SELECTEVENTS + encode + fanout sends + tick) at
// zero, with or without a shuffle and when big events go lazy: the
// selection runs over SelectSplit's reused peer scratch, the offer over
// Cyclon's, every envelope is encoded into the peer's scratch buffer, and
// each delivered copy comes from the transport's pool and goes back to it
// when the full inbox drops it. The lazy push's two repair steps are
// pinned at zero too: a receive that pulls unseen ids, and one that
// serves a pull — their ids and events go through the peer's Out
// scratch. So are the eager pushes: a receive that relays a hop-1 push's
// new event at once, one that relays a hop-2 push's as the third hop, one
// that floods a new big event from anyone, and a publish that pushes,
// beyond the one event record Publish allocates by design. (A relaying receive decodes its event into the
// decoder's slabs, two allocations every eight events —
// TestRecordDecodeAllocBudget's — which AllocsPerRun's whole-number
// average rounds away.) The rounds are driven by hand on an unstarted
// cluster, so the measurement is deterministic.
func TestLiveRoundPathAllocs(t *testing.T) {
	ids := make([]pubsub.EventID, 8)
	for k := range ids {
		ids[k] = pubsub.EventID{Publisher: 0, Seq: uint32(k + 1)}
	}
	envelope := func(from uint32, m wire.Msg) []byte {
		buf, err := wire.Append(nil, from, &m)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	unseen := []pubsub.EventID{{Publisher: 1, Seq: 1 << 20}, {Publisher: 2, Seq: 1 << 20}}
	lazy := envelope(1, wire.Msg{Kind: wire.KindLazy, Parts: &wire.Parts{IDs: unseen}})
	pull := envelope(1, wire.Msg{Kind: wire.KindPull, Parts: &wire.Parts{IDs: ids}})
	// Each relaying step receives a new event published by peer 1: a
	// small one in an eager push of the given hop from peer 1 or 2, or a
	// big one in a round's gossip from peer 2.
	receiveNew := func(from uint32, payload int, hop uint8) func(p *peer) {
		fresh := make([][]byte, 260)
		for k := range fresh {
			ev := &pubsub.Event{ID: pubsub.EventID{Publisher: 1, Seq: uint32(k + 1)}, Topic: "topic", Payload: make([]byte, payload)}
			m := wire.Msg{Kind: wire.KindEvents, Events: []*pubsub.Event{ev}}
			if hop > 0 {
				m.Kind, m.Hop = wire.KindEager, hop
			}
			fresh[k] = envelope(from, m)
		}
		n := 0
		return func(p *peer) { p.receive(fresh[n]); n++ }
	}
	body := make([]byte, 8)
	publish := func(p *peer) { p.m.Publish("topic", nil, body, &p.out); p.flush() }
	for _, tc := range []struct {
		name         string
		shuffleEvery int
		payload      int
		op           func(p *peer) // one step, after the round's setup
		kind         wire.Kind     // the kind the step sends first
		record       float64       // allocations the step makes by design: a published event's record
	}{
		{"gossip", 1 << 20, 8, (*peer).round, wire.KindEvents, 0},
		{"gossip and shuffle", 1, 8, (*peer).round, wire.KindEvents, 0},
		{"lazy gossip", 1 << 20, 1024, (*peer).round, wire.KindLazy, 0},
		{"receive that pulls", 1 << 20, 8, func(p *peer) { p.receive(lazy) }, wire.KindPull, 0},
		{"receive that serves a pull", 1 << 20, 1024, func(p *peer) { p.receive(pull) }, wire.KindEvents, 0},
		{"receive that relays at once", 1 << 20, 8, receiveNew(1, 8, 1), wire.KindEager, 0},
		{"receive that relays a third hop", 1 << 20, 8, receiveNew(2, 8, 2), wire.KindEager, 0},
		{"receive that floods a big event", 1 << 20, 8, receiveNew(2, 1024, 0), wire.KindEvents, 0},
		{"publish that pushes", 1 << 20, 8, publish, wire.KindEager, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCluster(t, Config{
				N: 16, Fanout: 4, Batch: 4,
				BufferMaxAge: 1 << 20, // events stay forwardable for the whole test
				InboxDepth:   4,       // inboxes fill, then sends drop (no allocation either way)
				ShuffleEvery: tc.shuffleEvery,
				Seed:         23,
			})
			for k := 0; k < 8; k++ {
				c.Publish(0, "topic", []pubsub.Attr{{Key: "k", Val: pubsub.Num(float64(k))}}, make([]byte, tc.payload))
			}
			p := c.peerAt(0)
			// Every shuffle target answers at once, with nothing new, so
			// the detector evicts nobody and the view keeps its size.
			sent := false
			step := func() {
				tc.op(p)
				sent = slices.ContainsFunc(p.out.Msgs, func(m protocol.Outgoing) bool { return m.Kind == tc.kind })
				if m := p.out.Msgs; len(m) > 0 && m[0].Kind == wire.KindOffer {
					p.m.Recv(m[0].To[0], protocol.In{Kind: wire.KindReply}, &p.out)
				}
			}
			for r := 0; r < 50; r++ {
				step() // warm scratch buffers, fill inboxes, settle the ledger
			}
			if !sent {
				t.Fatalf("the step sent no message of kind %d", tc.kind)
			}
			avg, beyond := testing.AllocsPerRun(200, step)-tc.record, ""
			if tc.record > 0 {
				beyond = " beyond its event record"
			}
			t.Logf("allocs: a live step (%s) costs %.0f%s, pin 0", tc.name, avg, beyond)
			if avg != 0 {
				t.Fatalf("%s allocates %.2f times per step%s, want 0", tc.name, avg, beyond)
			}
		})
	}
}

// TestFailedEncodeKeepsScratch: an envelope that fails to encode after
// growing the scratch array is neither sent nor kept — the peer's
// scratch stays the last array a good encoding left it.
func TestFailedEncodeKeepsScratch(t *testing.T) {
	c := mustCluster(t, Config{N: 4, Seed: 26})
	p := c.peerAt(0)
	gossip := func(events ...*pubsub.Event) {
		m := wire.Msg{Kind: wire.KindEvents, Events: events}
		p.out = protocol.Out{Msgs: []protocol.Outgoing{{Msg: m, To: []simnet.NodeID{1}, Class: fairness.ClassApp}}}
		p.flush()
	}
	gossip(&pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 1}, Topic: "t"})
	good, goodCap := &p.wbuf[0], cap(p.wbuf)
	sent := c.Traffic().Sent
	big := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 2}, Topic: "t", Payload: make([]byte, 4*goodCap)}
	bad := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 3}, Topic: strings.Repeat("x", math.MaxUint16+1)}
	gossip(big, bad)
	if &p.wbuf[0] != good || cap(p.wbuf) != goodCap {
		t.Fatal("a failed encode replaced the peer's scratch array")
	}
	if got := c.Traffic().Sent; got != sent {
		t.Fatalf("a failed encode sent %d envelopes", got-sent)
	}
}

// TestLiveReceiversOwnTheirEvents is the envelope-aliasing audit made
// executable. Before the wire codec, buffer.Select's event pointers
// were handed to every receiver goroutine while the sender kept using
// them: safe only as long as nobody ever wrote to a received event.
// Now each receiver decodes a private copy, so a delivery callback may
// scribble all over what it gets — run under -race (make race does)
// this test proves the chan path is as isolated as the socket path.
func TestLiveReceiversOwnTheirEvents(t *testing.T) {
	c := mustCluster(t, Config{N: 12, Fanout: 4, RoundPeriod: 2 * time.Millisecond, Seed: 24})
	var delivered atomic.Int64
	for i := 0; i < 12; i++ {
		if _, ok := c.Subscribe(i, pubsub.MatchAll()); !ok {
			t.Fatal("subscribe failed")
		}
		c.OnDeliver(i, func(ev *pubsub.Event) {
			// Mutate everything reachable from the delivered event. With
			// shared pointers this is a data race against every other
			// peer (and the sender's re-encoding of the same event).
			// Note this is a race probe, not an endorsed pattern: the
			// event is still shared with this peer's own forward buffer
			// (same goroutine, so race-free), and the mutation is what
			// this peer will forward — see the OnDeliver contract.
			for b := range ev.Payload {
				ev.Payload[b] ^= 0xff
			}
			for a := range ev.Attrs {
				ev.Attrs[a] = pubsub.Attr{Key: "rewritten", Val: pubsub.Bool(true)}
			}
			delivered.Add(1)
		})
	}
	c.Start()
	defer c.Stop()
	for k := 0; k < 4; k++ {
		c.Publish(k, "t", []pubsub.Attr{{Key: "n", Val: pubsub.Num(float64(k))}}, []byte("scribble-target"))
	}
	if !eventually(t, 10*time.Second, func() bool { return delivered.Load() == 4*12 }) {
		t.Fatalf("delivered %d of %d", delivered.Load(), 4*12)
	}
}
