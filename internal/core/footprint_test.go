package core

import (
	"runtime"
	"testing"

	"fairgossip/internal/gossip"
	"fairgossip/internal/pubsub"
)

// TestNodeFootprintBudget owns the memory half of the sim-huge claim:
// what one simulated node costs on the live heap, everything included
// (generator, buffer, seen-set, Node, its share of the kernel, network,
// ledger and envelope pool), with bench's sim-huge configuration at a
// fifth of its population, once ten rounds with a publication each have
// filled buffers and dedup sets to their steady state. It stood near
// 9 KB when every node owned a math/rand lagged-Fibonacci source (4.9 KB
// of it) and a map-backed buffer, and measures about 2 KB now (`make
// footprint` prints it); the budget sits between the two, where either
// coming back trips it and a Go release's size classes do not.
func TestNodeFootprintBudget(t *testing.T) {
	const (
		n      = 20000
		budget = 3.5 * 1024 // bytes per node
	)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := heap()
	c := NewShardedCluster(n, 2, Config{
		Mode:        ModeContent,
		Membership:  MemberFull,
		Fanout:      4,
		Batch:       8,
		Policy:      gossip.PolicyLeastSent,
		BufferCap:   32,
		SeenCap:     64,
		BatchRounds: true,
	}, ClusterOptions{Seed: 1})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	payload := make([]byte, 16)
	for r := 0; r < 10; r++ {
		c.Node(r*(n/10)).Publish("feed", nil, payload)
		c.RunRounds(1)
	}
	perNode := float64(heap()-base) / n
	runtime.KeepAlive(c)
	t.Logf("footprint: %.0f bytes/node (N = %d, budget %.0f)", perNode, n, float64(budget))
	if perNode > budget {
		t.Errorf("a simulated node costs %.0f bytes of live heap, budget %.0f", perNode, float64(budget))
	}
}
