package core

import (
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/stats"
)

// latencyRun runs simFair as redundancyRun does — 40 warm-up rounds, a
// 60-round window, a 24-round drain — and returns the p50 and p99, in
// milliseconds of simulated time, of publish → deliver over every other
// peer's delivery of an event published in the window. simFair's
// publisher is a subscriber of its topic, so its own delivery, which
// Publish makes, marks the publication.
func latencyRun(seed int64) (p50, p99 float64) {
	const warm, window, drain = 40, 60, 24
	c := newSimFair(seed)
	published := make(map[pubsub.EventID]time.Duration)
	var lat []float64
	inWindow := false
	for i, nd := range c.Nodes {
		self := uint32(i)
		nd.OnDeliver = func(ev *pubsub.Event) {
			now := c.now()
			if inWindow && ev.ID.Publisher == self {
				published[ev.ID] = now
			}
			if at, ok := published[ev.ID]; ok && ev.ID.Publisher != self {
				lat = append(lat, float64(now-at)/float64(time.Millisecond))
			}
		}
	}
	for r := 0; r < warm+window; r++ {
		inWindow = r >= warm
		c.round()
	}
	inWindow = false
	c.RunRounds(drain)
	q := stats.Quantiles(lat, 0.5, 0.99)
	return q[0], q[1]
}

// TestDeliveryLatencyBudget pins publish → deliver on the sim-fair
// configuration at N = 200, seed 1, in simulated time (5–50 ms links,
// 100 ms rounds). While every hop waited for its holder's next round it
// read p50/p99 191/337 ms; with an event's first two hops sent at once —
// the publisher's push on Publish, its receivers' relay on receipt — it
// reads 93/190 ms (`make latency` prints it). The budgets sit between
// the two.
func TestDeliveryLatencyBudget(t *testing.T) {
	const p50Ceiling, p99Ceiling = 140, 260
	p50, p99 := latencyRun(1)
	t.Logf("latency: publish → deliver p50 %.1f ms (ceiling %d), p99 %.1f ms (ceiling %d), simulated time", p50, p50Ceiling, p99, p99Ceiling)
	if p50 > p50Ceiling || p99 > p99Ceiling {
		t.Fatalf("publish → deliver p50/p99 %.1f/%.1f ms, ceilings %d/%d", p50, p99, p50Ceiling, p99Ceiling)
	}
}
