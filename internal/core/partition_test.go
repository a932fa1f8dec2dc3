package core

import (
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// TestPartitionHealConvergence exercises the epidemic-resilience claim the
// paper leans on (§4.2, citing Demers et al.): events published during a
// network partition reach the other side after healing, as long as they
// are still alive in some buffer when connectivity returns.
func TestPartitionHealConvergence(t *testing.T) {
	c := NewCluster(48, Config{
		Mode:         ModeContent,
		Fanout:       5,
		Batch:        8,
		BufferMaxAge: 30, // long enough to survive the partition window
	}, ClusterOptions{
		Seed:      21,
		NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
	})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	c.RunRounds(10)

	// Partition nodes 0..23 away from 24..47.
	side := make([]int, 24)
	for i := range side {
		side[i] = i
	}
	c.Partition(side)

	// Publish one event on each side during the partition.
	c.Node(0).Publish("left", nil, nil)
	c.Node(30).Publish("right", nil, nil)
	c.RunRounds(10)

	// During the partition, nothing crosses.
	leftHasRight, rightHasLeft := 0, 0
	for i := 0; i < 24; i++ {
		if c.Ledger.Account(i).Delivered >= 2 {
			leftHasRight++
		}
	}
	for i := 24; i < 48; i++ {
		if c.Ledger.Account(i).Delivered >= 2 {
			rightHasLeft++
		}
	}
	if leftHasRight != 0 || rightHasLeft != 0 {
		t.Fatalf("events crossed the partition: %d/%d", leftHasRight, rightHasLeft)
	}

	// Heal and converge.
	c.Heal()
	c.RunRounds(25)
	for i := 0; i < 48; i++ {
		if got := c.Ledger.Account(i).Delivered; got != 2 {
			t.Fatalf("node %d delivered %d events after heal, want 2", i, got)
		}
	}
}
