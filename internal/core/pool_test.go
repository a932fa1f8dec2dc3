package core

import "testing"

// TestPoolMissRestocksBySlab pins what a run on an empty freelist costs:
// two allocations per poolSlab envelopes, each with room for a default
// batch, so that the round in which a shard outruns its neighbour's
// releases (pool.go) does not show in a run's allocation count.
func TestPoolMissRestocksBySlab(t *testing.T) {
	p := &msgPool{}
	held := make([]*wireMsg, 0, 2*poolSlab)
	// AllocsPerRun calls this twice, a warm-up and the measured run, and
	// the freelist is empty at the start of both.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < poolSlab; i++ {
			held = append(held, p.get())
		}
	})
	if allocs != 2 {
		t.Fatalf("%d misses allocate %v times, want 2", poolSlab, allocs)
	}
	for _, m := range held {
		if m.pool != p || len(m.Events) != 0 || cap(m.Events) != defaultBatch {
			t.Fatalf("restocked envelope: pool %p, Events len %d cap %d", m.pool, len(m.Events), cap(m.Events))
		}
		m.Events = append(m.Events, nil)
		m.Release()
	}
	if len(p.free) != len(held) {
		t.Fatalf("%d envelopes came back of %d", len(p.free), len(held))
	}
}
