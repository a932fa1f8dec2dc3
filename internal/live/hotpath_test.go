package live

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// TestLiveSamplePeersZeroAlloc: SELECTPARTICIPANTS used to build a
// map[int]struct{} plus a fresh slice on every round of every peer; the
// view-sampling port must allocate nothing once its scratch buffers are
// warm.
func TestLiveSamplePeersZeroAlloc(t *testing.T) {
	c := mustCluster(t, Config{N: 32, Fanout: 5, Seed: 21})
	p := c.peerAt(0)
	p.m.Partners(5, &p.out) // warm the scratch buffers
	if avg := testing.AllocsPerRun(200, func() { p.m.Partners(5, &p.out) }); avg != 0 {
		t.Fatalf("Partners allocates %.2f times per call, want 0", avg)
	}
}

// TestLiveSamplePeersDrawsFromTheView: partner selection reads the
// peer's partial view only — distinct partners, never self, every one
// a current view member, and an oversized k is capped at the view size
// (not the population: nothing on this path may know the population).
func TestLiveSamplePeersDrawsFromTheView(t *testing.T) {
	c := mustCluster(t, Config{N: 40, ViewCap: 8, Seed: 22})
	p := c.peerAt(3)
	inView := func() map[int]bool {
		m := map[int]bool{}
		for _, q := range p.m.View().IDs() {
			m[int(q)] = true
		}
		return m
	}
	for trial := 0; trial < 200; trial++ {
		view := inView()
		got := p.m.Partners(4, &p.out)
		if want := min(4, len(view)); len(got) != want {
			t.Fatalf("sampled %d peers, want %d", len(got), want)
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
	if got := p.m.Partners(99, &p.out); len(got) != p.m.View().Len() {
		t.Fatalf("oversized k: %d peers, want the whole view (%d)", len(got), p.m.View().Len())
	}
	if got := p.m.Partners(0, &p.out); len(got) != 0 {
		t.Fatalf("k=0 sampled %v", got)
	}
}

// TestLiveRoundPathAllocs pins the steady-state allocation budget of
// the full round path (SELECTEVENTS + encode + fanout sends + tick) at
// zero, with or without a shuffle: the selection runs over SelectInto's
// reused peer scratch, the offer over Cyclon's, every envelope is
// encoded into the peer's scratch buffer, and each delivered copy comes
// from the transport's pool and goes back to it when the full inbox
// drops it. The rounds are driven by hand on an unstarted cluster, so
// the measurement is deterministic.
func TestLiveRoundPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		shuffleEvery int
		want         float64
	}{
		{"gossip", 1 << 20, 0},
		{"gossip and shuffle", 1, 0},
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
				c.Publish(0, "topic", []pubsub.Attr{{Key: "k", Val: pubsub.Num(float64(k))}}, []byte("steady"))
			}
			p := c.peerAt(0)
			// Every shuffle target answers at once, with nothing new, so
			// the detector evicts nobody and the view keeps its size.
			round := func() {
				p.round()
				if len(p.out.Sends) > 0 {
					p.m.RecvMembership(wire.KindReply, p.out.Sends[0].To, nil, &p.out)
				}
			}
			for r := 0; r < 50; r++ {
				round() // warm scratch buffers, fill inboxes, settle the ledger
			}
			avg := testing.AllocsPerRun(200, round)
			t.Logf("allocs: a live round (%s) costs %.0f, pin %.0f", tc.name, avg, tc.want)
			if avg != tc.want {
				t.Fatalf("live round path allocates %.2f times per round, want %.0f", avg, tc.want)
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
	to := []simnet.NodeID{1}
	p.gossip([]*pubsub.Event{{ID: pubsub.EventID{Publisher: 0, Seq: 1}, Topic: "t"}}, to)
	good, goodCap := &p.wbuf[0], cap(p.wbuf)
	sent := c.Traffic().Sent
	big := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 2}, Topic: "t", Payload: make([]byte, 4*goodCap)}
	bad := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 3}, Topic: strings.Repeat("x", math.MaxUint16+1)}
	p.gossip([]*pubsub.Event{big, bad}, to)
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
