package core

import "testing"

// TestDeliveryLatencyBudget pins publish → deliver on the sim-fair
// configuration at N = 200, seed 1, in simulated time (5–50 ms links,
// 100 ms rounds). While every hop waited for its holder's next round it
// read p50/p99 191/337 ms; with an event's first two hops sent at once —
// the publisher's push on Publish, its receivers' relay on receipt —
// 93/190 ms; with its first protocol.EagerHops hops sent at once, each
// eager push carrying its hop, it reads 59/113 ms (`make latency` prints
// it). The budgets sit between the last two.
func TestDeliveryLatencyBudget(t *testing.T) {
	const p50Ceiling, p99Ceiling = 75, 150
	r := spreadRun(newSimFair(1))
	t.Logf("latency: publish → deliver p50 %.1f ms (ceiling %d), p99 %.1f ms (ceiling %d), simulated time", r.p50, p50Ceiling, r.p99, p99Ceiling)
	if r.p50 > p50Ceiling || r.p99 > p99Ceiling {
		t.Fatalf("publish → deliver p50/p99 %.1f/%.1f ms, ceilings %d/%d", r.p50, r.p99, p50Ceiling, p99Ceiling)
	}
}
