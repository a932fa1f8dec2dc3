package core

import (
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

func TestSemanticBiasCutsTrafficAtSparseInterest(t *testing.T) {
	// EXP-X2 in miniature. With many small interest camps, semantic
	// routing behaves like implicit topic grouping: events stop visiting
	// uninterested buffers, so total application traffic collapses while
	// delivery stays close — the "grouping according to semantic
	// knowledge" the paper's §5.2 closing paragraph suggests.
	run := func(bias float64) (delivered, appBytes uint64) {
		const n, camps = 128, 8
		c := NewCluster(n, Config{
			Mode:         ModeContent,
			Fanout:       2,
			Batch:        4,
			BufferMaxAge: 2,
			SemanticBias: bias,
		}, ClusterOptions{
			Seed:      4,
			NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
		})
		for i, nd := range c.Nodes {
			nd.Subscribe(pubsub.Topic([]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}[i%camps]))
		}
		c.RunRounds(15)
		for r := 0; r < 120; r++ {
			c.Node(r%n).Publish([]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}[r%camps],
				nil, make([]byte, 48))
			c.RunRounds(1)
		}
		c.RunRounds(10)
		for i := 0; i < n; i++ {
			a := c.Ledger.Account(i)
			delivered += a.Delivered
			appBytes += a.BytesSent[fairness.ClassApp]
		}
		return delivered, appBytes
	}
	uDel, uBytes := run(0)
	bDel, bBytes := run(0.75)
	if float64(bDel) < 0.9*float64(uDel) {
		t.Fatalf("biased delivery %d fell below 90%% of unbiased %d", bDel, uDel)
	}
	if float64(bBytes) > 0.5*float64(uBytes) {
		t.Fatalf("biased traffic %d not below half of unbiased %d", bBytes, uBytes)
	}
}
