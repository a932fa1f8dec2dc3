package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"fairgossip/internal/eventsim"
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
// of it) and a map-backed buffer, near 2 KB with 352-byte nodes, 24-byte
// seen-set ids and 192-byte envelopes, and measures about 1.5 KB now
// (`make footprint` prints it); the budget sits between the last two, so
// either record coming back trips it and a Go release's size classes do
// not.
func TestNodeFootprintBudget(t *testing.T) {
	const (
		n      = 20000
		budget = 1.75 * 1024 // bytes per node
	)
	base := memStats()
	c := hugeCluster(n, 10)
	perNode := float64(memStats().HeapAlloc-base.HeapAlloc) / n
	runtime.KeepAlive(c)
	t.Logf("footprint: %.0f bytes/node (N = %d, budget %.0f)", perNode, n, float64(budget))
	if perNode > budget {
		t.Errorf("a simulated node costs %.0f bytes of live heap, budget %.0f", perNode, float64(budget))
	}
}

// TestWarmupGarbageBudget owns what set sim-huge's peak RSS: the garbage
// its warm-up makes while buffers, seen-sets and in-flight traffic grow
// at once, which the collector's headroom then doubles (PERFORMANCE.md
// "Per-node footprint"). With the same configuration and population as
// the footprint test, twelve rounds with a publication each, it pins the
// bytes allocated less the live heap they left behind, per node. It read
// 940 B when the kernel arena, mailboxes and audit lists grew by append
// and copied themselves, and reads about 80 now that each is a block
// list; the budget sits between the two.
func TestWarmupGarbageBudget(t *testing.T) {
	const (
		n      = 20000
		budget = 300 // bytes per node
	)
	c := hugeCluster(n, 0)
	base := memStats()
	publishRounds(c, 12)
	end := memStats()
	garbage := (float64(end.TotalAlloc-base.TotalAlloc) - (float64(end.HeapAlloc) - float64(base.HeapAlloc))) / n
	runtime.KeepAlive(c)
	t.Logf("warm-up garbage: %.0f bytes/node (N = %d, budget %d)", garbage, n, budget)
	if garbage > budget {
		t.Errorf("twelve warm-up rounds leave %.0f bytes of garbage per node, budget %d", garbage, budget)
	}
}

// TestConstructionBudget owns what building the cluster costs: with the
// same configuration and population as the footprint test,
// NewShardedCluster's allocations per node, and the garbage it leaves
// (bytes allocated less the live heap they left behind) per node. It read
// 6.01 allocations and 449 B when each node was six objects and
// every shard grew its full-width network tables by append; now a shard
// sizes its tables once and builds its nodes as one slab, and a node
// allocates nothing of its own until it sees its first event (it read
// 1.01 while Init made the seen-set's table).
func TestConstructionBudget(t *testing.T) {
	const (
		n             = 20000
		allocBudget   = 1.1 // per node
		garbageBudget = 50  // bytes per node
	)
	base := memStats()
	c := NewShardedCluster(n, 2, hugeConfig(), ClusterOptions{Seed: 1})
	end := memStats()
	allocs := float64(end.Mallocs-base.Mallocs) / n
	garbage := (float64(end.TotalAlloc-base.TotalAlloc) - (float64(end.HeapAlloc) - float64(base.HeapAlloc))) / n
	runtime.KeepAlive(c)
	t.Logf("construction: %.2f allocations and %.0f bytes of garbage per node (N = %d, budgets %.1f and %d)", allocs, garbage, n, allocBudget, garbageBudget)
	if allocs > allocBudget {
		t.Errorf("building the cluster makes %.2f allocations per node, budget %.1f", allocs, allocBudget)
	}
	if garbage > garbageBudget {
		t.Errorf("building the cluster leaves %.0f bytes of garbage per node, budget %d", garbage, garbageBudget)
	}
}

// BenchmarkNewShardedCluster builds bench's sim-huge cluster, at its
// population, on 2 shards.
func BenchmarkNewShardedCluster(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewShardedCluster(100000, 2, hugeConfig(), ClusterOptions{Seed: 1})
	}
}

// hugeConfig is bench's sim-huge configuration.
func hugeConfig() Config {
	return Config{
		Mode:        ModeContent,
		Membership:  MemberFull,
		Fanout:      4,
		Batch:       8,
		Policy:      gossip.PolicyLeastSent,
		BufferCap:   32,
		SeenCap:     64,
		BatchRounds: true,
	}
}

// hugeCluster builds bench's sim-huge configuration at n nodes on 2
// shards, everyone subscribed to everything, and runs its first rounds
// with a publication each.
func hugeCluster(n, rounds int) *Cluster {
	c := NewShardedCluster(n, 2, hugeConfig(), ClusterOptions{Seed: 1})
	for _, nd := range c.Nodes {
		nd.Subscribe(pubsub.MatchAll())
	}
	publishRounds(c, rounds)
	return c
}

// publishRounds runs rounds rounds, each after one publication from a
// node spread across the id space.
func publishRounds(c *Cluster, rounds int) {
	payload := make([]byte, 16)
	for r := 0; r < rounds; r++ {
		c.Node(r*(c.N()/rounds)).Publish("feed", nil, payload)
		c.RunRounds(1)
	}
}

// memStats reads the allocator's counters after a full collection.
func memStats() runtime.MemStats {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// TestHotRecordSizes pins the records sim-huge holds by the hundred
// thousand — one per node, per buffered event, per message in flight —
// so that a field added to one fails here, by name, instead of showing up
// as peak RSS. Growing one is a decision: change its size here and say
// in PERFORMANCE.md "Per-node footprint" what the bytes buy.
func TestHotRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	field := func(typ reflect.Type, name string) reflect.Type {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", typ, name)
		}
		return f.Type
	}
	// elem is the element size of a slice field of another package's type;
	// blockElem that of an eventsim.Blocks (its blocks are []*[blockLen]T),
	// read through the block type the records live in.
	elem := func(typ reflect.Type, name string) uintptr { return field(typ, name).Elem().Size() }
	blockElem := func(blocks reflect.Type) uintptr { return field(blocks, "blocks").Elem().Elem().Elem().Size() }
	sh := reflect.TypeFor[shard]()
	for _, r := range []struct {
		name       string
		size, want uintptr
	}{
		{"eventsim.event (a kernel queue entry)", blockElem(field(reflect.TypeFor[eventsim.Sim](), "arena")), 56},
		{"gossip.bufEntry (a buffered event)", elem(reflect.TypeFor[gossip.Buffer](), "ents"), 16},
		{"core.wireMsg (an envelope)", unsafe.Sizeof(wireMsg{}), 80},
		{"core.pendingMsg (a message parked for the barrier)", blockElem(field(sh, "outbox").Elem()), 40},
		{"core.deferredAudit (an audit parked for the barrier)", blockElem(field(sh, "audits")), 12},
		{"core.Node (the peer's stream, seen-set and buffer headers inside)", unsafe.Sizeof(Node{}), 344},
	} {
		if r.size != r.want {
			t.Errorf("%s is %d bytes, pinned at %d", r.name, r.size, r.want)
		}
	}
}
