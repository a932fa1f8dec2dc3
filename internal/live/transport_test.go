package live

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// mustEnvelope encodes a one-event envelope claiming the given sender.
func mustEnvelope(t *testing.T, sender uint32, payload []byte) []byte {
	t.Helper()
	buf, err := wire.AppendEnvelope(nil, sender, []*pubsub.Event{
		{ID: pubsub.EventID{Publisher: sender, Seq: 1}, Topic: "t", Payload: payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestLiveUDPDisseminationReachesEveryone: the full protocol over real
// loopback datagram sockets — encode on send, decode on receive, one
// socket per peer — delivers to the whole population, end to end.
func TestLiveUDPDisseminationReachesEveryone(t *testing.T) {
	c := mustCluster(t, Config{
		N: 16, Fanout: 4,
		RoundPeriod: 5 * time.Millisecond,
		Seed:        11,
		Transport:   transport.UDP(),
	})
	var delivered atomic.Int64
	for i := 0; i < 16; i++ {
		if _, ok := c.Subscribe(i, pubsub.MatchAll()); !ok {
			t.Fatal("subscribe failed")
		}
		c.OnDeliver(i, func(*pubsub.Event) { delivered.Add(1) })
		if addr := c.Addr(i); !strings.HasPrefix(addr, "127.0.0.1:") {
			t.Fatalf("peer %d addr %q is not a loopback socket", i, addr)
		}
	}
	c.Start()
	defer c.Stop()
	c.Publish(2, "news", []pubsub.Attr{{Key: "k", Val: pubsub.Num(7)}}, []byte("over real sockets"))
	if !eventually(t, 10*time.Second, func() bool { return delivered.Load() == 16 }) {
		t.Fatalf("delivered %d of 16", delivered.Load())
	}
}

// TestLiveUDPTrafficConservation: after Stop (which quiesces the
// sockets), every send attempt is accounted: received or counted in a
// drop bucket. The identity a silent kernel loss would break.
func TestLiveUDPTrafficConservation(t *testing.T) {
	c := mustCluster(t, Config{
		N: 8, Fanout: 3,
		RoundPeriod: 3 * time.Millisecond,
		Seed:        12,
		Transport:   transport.UDP(),
	})
	var delivered atomic.Int64
	for i := 0; i < 8; i++ {
		c.Subscribe(i, pubsub.MatchAll())
		c.OnDeliver(i, func(*pubsub.Event) { delivered.Add(1) })
	}
	c.Start()
	for k := 0; k < 5; k++ {
		c.Publish(k%8, "t", nil, []byte("conserve"))
	}
	eventually(t, 10*time.Second, func() bool { return delivered.Load() == 40 })
	c.Stop()
	tr := c.Traffic()
	if tr.Sent == 0 {
		t.Fatal("no traffic flowed")
	}
	if tr.Sent != tr.Recv+tr.Dropped {
		t.Fatalf("traffic leak: sent %d != recv %d + dropped %d", tr.Sent, tr.Recv, tr.Dropped)
	}
	if tr.Malformed != 0 {
		t.Fatalf("%d malformed envelopes on a healthy cluster", tr.Malformed)
	}
}

// TestLiveInboxOverflowCounted: the bug this PR fixes — peer.send used
// to silently discard envelopes when the destination inbox was full.
// With a depth-1 inbox and nobody draining (the cluster is never
// started, so rounds are driven by hand), overflow must land in
// InboxDrops and the conservation identity must still balance.
func TestLiveInboxOverflowCounted(t *testing.T) {
	c := mustCluster(t, Config{N: 8, Fanout: 3, Batch: 4, InboxDepth: 1, BufferMaxAge: 1 << 20, Seed: 13})
	for k := 0; k < 4; k++ {
		c.Publish(0, "t", nil, []byte("flood"))
	}
	p := c.peerAt(0)
	for r := 0; r < 20; r++ {
		p.round()
	}
	tr := c.Traffic()
	if tr.InboxDrops == 0 {
		t.Fatalf("no inbox drops counted under guaranteed overflow: %+v", tr)
	}
	if tr.Sent != tr.Recv+tr.Dropped {
		t.Fatalf("traffic leak: sent %d != recv %d + dropped %d", tr.Sent, tr.Recv, tr.Dropped)
	}
}

// TestLiveMalformedEnvelopeCounted: garbage handed to a peer is
// rejected by the wire decoder and counted, never processed or
// panicked on.
func TestLiveMalformedEnvelopeCounted(t *testing.T) {
	c := mustCluster(t, Config{N: 4, Seed: 14})
	p := c.peerAt(1)
	p.receive([]byte("definitely not an envelope"))
	if got := c.Traffic().Malformed; got != 1 {
		t.Fatalf("malformed count %d, want 1", got)
	}
	// A well-formed envelope claiming an out-of-range sender is equally
	// rejected (the ledger has no account to audit).
	buf := mustEnvelope(t, 99, []byte("x"))
	p.receive(buf)
	if got := c.Traffic().Malformed; got != 2 {
		t.Fatalf("malformed count %d, want 2", got)
	}
}

// TestLiveCountsKindsItDoesNotRun: a well-formed envelope of a kind only
// the simulator runs reaches the peer, is counted as malformed, and moves
// nothing — no delivery, no view change — while the books still balance.
// A pull is not one of them: a live peer answers it (a lazy push's repair).
func TestLiveCountsKindsItDoesNotRun(t *testing.T) {
	c := mustCluster(t, Config{N: 4, Seed: 21})
	defer c.Stop()
	c.Subscribe(1, pubsub.MatchAll())
	var delivered atomic.Int64
	c.OnDeliver(1, func(*pubsub.Event) { delivered.Add(1) })
	p, q := c.peerAt(0), c.peerAt(1)
	view := q.view()
	ev := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 99}, Topic: "t"}
	walk := &wire.Parts{Origin: 0, Hops: 4, Topic: "t"}
	for _, m := range []wire.Msg{
		{Kind: wire.KindSubWalk, Parts: walk},
		{Kind: wire.KindSubAck, Entries: []wire.ViewEntry{{ID: 2}, {ID: 3, Age: 1}}, Parts: &wire.Parts{Topic: "t"}},
		{Kind: wire.KindPubWalk, Events: []*pubsub.Event{ev}, Parts: walk},
		{Kind: wire.KindDigest, Parts: &wire.Parts{IDs: []pubsub.EventID{ev.ID}}},
	} {
		buf, err := wire.Append(nil, 0, &m)
		if err != nil {
			t.Fatal(err)
		}
		p.send(1, buf, fairness.ClassInfra)
	}
	for len(q.inbox) > 0 {
		buf := <-q.inbox
		q.receive(buf)
		c.net.Release(buf)
	}
	tr := c.Traffic()
	if tr.Malformed != 4 {
		t.Fatalf("malformed count %d, want one per sim-only kind (4)", tr.Malformed)
	}
	if delivered.Load() != 0 || !slices.Equal(q.view(), view) {
		t.Fatalf("a sim-only kind moved the peer: %d deliveries, view %v → %v", delivered.Load(), view, q.view())
	}
	if tr.Sent != 4 || tr.Sent != tr.Recv+tr.Dropped {
		t.Fatalf("books do not balance: %+v", tr)
	}
}

// TestLiveFaultDropsCounted: link loss shows up in ShaperDrops and
// conservation still balances (driven by hand for determinism).
func TestLiveFaultDropsCounted(t *testing.T) {
	c := mustCluster(t, Config{N: 6, Fanout: 3, Seed: 15, BufferMaxAge: 1 << 20})
	c.SetShape(transport.Profile{Loss: 1}) // every send is a shaper drop, the publisher's eager push's too
	c.Publish(0, "t", nil, []byte("lossy"))
	p := c.peerAt(0)
	for r := 0; r < 5; r++ {
		p.round()
	}
	tr := c.Traffic()
	if tr.ShaperDrops != tr.Sent || tr.Sent == 0 {
		t.Fatalf("under total loss every send must shaper-drop: %+v", tr)
	}
	if tr.Recv != 0 {
		t.Fatalf("received %d envelopes under total loss", tr.Recv)
	}
}

// TestCrashedPeerSendsNothing: a crashed peer sends nothing, so neither
// its ledger account nor the traffic counters move when it publishes or
// subscribes — the eager push a publish makes on an up peer included. The
// fault layer only checks a link's destination, so a crashed sender's
// flush used to reach the network.
func TestCrashedPeerSendsNothing(t *testing.T) {
	c := mustCluster(t, Config{N: 6, Fanout: 3, Seed: 15})
	c.Publish(0, "t", nil, []byte("up")) // the eager push: what a crashed peer must not send
	if c.Traffic().Sent == 0 {
		t.Fatal("an up peer's publish sent nothing")
	}
	c.Crash(0)
	before, traffic := c.Ledger().Account(0), c.Traffic()
	c.Publish(0, "t", nil, []byte("down"))
	c.Subscribe(0, pubsub.Topic("u"))
	after := c.Ledger().Account(0)
	if after.MsgsSent != before.MsgsSent || after.BytesSent != before.BytesSent {
		t.Errorf("a crashed peer was charged %v messages, was %v", after.MsgsSent, before.MsgsSent)
	}
	if got := c.Traffic(); got != traffic {
		t.Errorf("a crashed peer's calls moved the traffic counters %+v -> %+v", traffic, got)
	}
}
