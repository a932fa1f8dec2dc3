package live

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// TestLazyPushRepairsLoss: a 1 KB event travels in full once per peer —
// each relays it on first admission — and by id in every round push, so
// under 30 % link loss some peer misses every full copy of one and hears
// only its id. It pulls the event from a holder, so every subscriber
// delivers every event; at least one pull goes out, and no envelope —
// lazy pushes and pulls included — is counted malformed. It logs what a
// delivery cost on the wire: 7.8–8.0 KB and 14–17 pulls while a holder
// pushed the event in full until four copies came back, 4.6 KB and 74–100
// pulls since, and 4.6–4.7 KB and 55–89 pulls (5th–95th percentile of
// 1 200 runs) since a big event retires on 4 × batch returned copies, not
// 2 × batch: at 2 × a poorly connected peer's pulls met holders that had
// just retired the event, and about one run in a hundred missed a pair.
func TestLazyPushRepairsLoss(t *testing.T) {
	const n, events = 16, 64
	var kinds *refusingNet // refuses nothing: it counts the lazy pushes and pulls
	c := mustCluster(t, Config{
		N: n, RoundPeriod: 4 * time.Millisecond, BufferMaxAge: 16, Seed: 41,
		Transport: func(size int) (transport.Net, error) {
			inner, err := transport.NewChanNet(size)
			kinds = &refusingNet{Net: inner, every: math.MaxUint64}
			return kinds, err
		},
	})
	var delivered atomic.Int64
	for i := 0; i < n; i++ {
		c.Subscribe(i, pubsub.MatchAll())
		c.OnDeliver(i, func(*pubsub.Event) { delivered.Add(1) })
	}
	c.SetShape(transport.Profile{Loss: 0.3})
	c.Start()
	for k := 0; k < events; k++ {
		c.Publish(k%n, "t", nil, make([]byte, 1024))
		c.RunRounds(1)
	}
	ok := eventually(t, 20*time.Second, func() bool { return delivered.Load() == n*events })
	c.Stop()
	if !ok {
		t.Fatalf("delivered %d of %d (event, subscriber) pairs", delivered.Load(), n*events)
	}
	var bytes uint64
	for i := 0; i < n; i++ {
		a := c.Ledger().Account(i)
		bytes += a.BytesSent[fairness.ClassApp] + a.BytesSent[fairness.ClassInfra]
	}
	tr := c.Traffic()
	t.Logf("redundancy: 16 live peers, 1 KB events, 30 %% loss: %.0f B sent per delivery; %d lazy pushes, %d pulls",
		float64(bytes)/float64(n*events), kinds.lazy.Load(), kinds.pulls.Load())
	if kinds.lazy.Load() == 0 || kinds.pulls.Load() == 0 {
		t.Errorf("%d lazy pushes and %d pulls, want some of each", kinds.lazy.Load(), kinds.pulls.Load())
	}
	if tr.Malformed != 0 {
		t.Errorf("%d envelopes counted malformed: %+v", tr.Malformed, tr)
	}
}
