package live

import (
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// TestShapedLedgerBytesExact is the satellite property test: under
// delay + jitter + reorder (no loss, no cap — nothing legitimately
// eaten), the bytes the ledger charged each peer equal the bytes the
// transport actually observed from that peer, exactly — deferred
// delivery may hold envelopes but never loses, duplicates, or resizes
// one. The counting layer sits between the shaper and the substrate, so
// it sees exactly what survived shaping; Stop flushes the shaper's
// queue before the comparison.
func TestShapedLedgerBytesExact(t *testing.T) {
	counter := &countingNet{scribble: true, bytes: make(map[int]uint64)}
	c := mustCluster(t, Config{
		N:           12,
		Fanout:      4,
		RoundPeriod: 3 * time.Millisecond,
		Seed:        21,
		Transport: func(n int) (transport.Net, error) {
			inner, err := transport.NewChanNet(n)
			if err != nil {
				return nil, err
			}
			counter.inner = inner
			return counter, nil
		},
		Shape: &transport.Profile{
			Delay:   500 * time.Microsecond,
			Jitter:  1500 * time.Microsecond,
			Reorder: 0.2,
		},
	})
	for i := 0; i < 12; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	for k := 0; k < 20; k++ {
		c.Publish(k%12, "t", nil, make([]byte, 64))
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	c.Stop() // flushes the shaper, quiesces the substrate

	tr := c.Traffic()
	if tr.ShaperDrops != 0 {
		t.Fatalf("profile without loss/cap dropped %d envelopes", tr.ShaperDrops)
	}
	if tr.TransportDrops != 0 {
		t.Fatalf("substrate refused %d sends", tr.TransportDrops)
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	for id := 0; id < c.N(); id++ {
		a := c.Ledger().Account(id)
		charged := a.BytesSent[fairness.ClassApp] + a.BytesSent[fairness.ClassInfra]
		if observedBytes := counter.bytes[id]; charged != observedBytes {
			t.Errorf("peer %d: ledger charged %d bytes, transport observed %d", id, charged, observedBytes)
		}
	}
	// Scribble audit: every envelope hashed the same after the
	// substrate's Send as before it — the substrate only reads what it
	// is given. Under -race a receiver touching the sender's buffer
	// (instead of its own copy) would also be a hard failure.
	if counter.mutated != 0 {
		t.Fatalf("%d envelopes changed during the substrate's Send", counter.mutated)
	}
}

// TestShapedDropCompositionExact is the count-once audit: with shaper
// loss, crashed destinations AND a partition all active at once,
// conservation stays exact — a message the fault check drops never
// reaches the shaper, so no loss is counted twice and none vanishes.
func TestShapedDropCompositionExact(t *testing.T) {
	c := mustCluster(t, Config{
		N:           16,
		Fanout:      5,
		RoundPeriod: 3 * time.Millisecond,
		Seed:        22,
		Shape:       &transport.Profile{Loss: 0.25},
	})
	for i := 0; i < 16; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	c.Crash(7) // crashed destination: fault layer eats it first
	c.Partition([]int{2, 3})
	for k := 0; k < 30; k++ {
		c.Publish(k%5, "t", nil, make([]byte, 48))
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(80 * time.Millisecond)
	c.Stop()

	tr := c.Traffic()
	if tr.Sent != tr.Recv+tr.Dropped {
		t.Fatalf("conservation broke under composed loss: sent %d != recv %d + dropped %d (leak %d)",
			tr.Sent, tr.Recv, tr.Dropped, int64(tr.Sent)-int64(tr.Recv)-int64(tr.Dropped))
	}
	if tr.FaultDrops == 0 {
		t.Fatal("fault layer (crashed peer + partition) dropped nothing")
	}
	if tr.ShaperDrops == 0 {
		t.Fatal("shaper layer (loss) dropped nothing")
	}
}

// TestSetShapeRequiresMiddleware: every cluster carries the middleware,
// so one built without Config.Shape takes a profile mid-run, and the
// swap takes effect.
func TestSetShapeRequiresMiddleware(t *testing.T) {
	c := mustCluster(t, Config{N: 4, RoundPeriod: 3 * time.Millisecond, Seed: 24})
	for i := 0; i < 4; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	defer c.Stop()
	c.SetShape(transport.Profile{Loss: 1})
	c.Publish(0, "t", nil, nil)
	if !eventually(t, 5*time.Second, func() bool { return c.Traffic().ShaperDrops > 0 }) {
		t.Fatal("total shaper loss never dropped anything")
	}
}

// TestRebindReannounces: a rebind keeps the peer up, moves its address
// on a rebindable substrate, re-announces through the join path, and
// the cluster keeps delivering to it — with the books still balanced
// after Stop.
func TestRebindReannounces(t *testing.T) {
	c := mustCluster(t, Config{
		N:           8,
		Fanout:      4,
		RoundPeriod: 3 * time.Millisecond,
		Seed:        25,
		Transport:   transport.UDP(),
		Shape:       &transport.Profile{Delay: 300 * time.Microsecond, Jitter: 300 * time.Microsecond},
	})
	for i := 0; i < 8; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	before := c.Addr(5)
	if !c.Rebind(5) {
		t.Fatal("rebind refused")
	}
	after := c.Addr(5)
	if before == after {
		t.Fatalf("address did not move: %s", after)
	}
	base := c.Ledger().Account(5).Delivered
	c.Publish(0, "t", nil, []byte("post-move"))
	if !eventually(t, 5*time.Second, func() bool { return c.Ledger().Account(5).Delivered > base }) {
		t.Fatal("moved peer stopped receiving")
	}
	c.Stop()
	tr := c.Traffic()
	if tr.Sent != tr.Recv+tr.Dropped {
		t.Fatalf("conservation broke across a rebind: sent %d != recv %d + dropped %d",
			tr.Sent, tr.Recv, tr.Dropped)
	}
	if c.Rebind(5) {
		t.Fatal("rebind succeeded on a stopped cluster")
	}
}
