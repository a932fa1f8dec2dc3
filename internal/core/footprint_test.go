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

// TestHotRecordSizes pins the records sim-huge holds by the hundred
// thousand — one per node, per buffered event, per message in flight —
// so that a field added to one fails here, by name, instead of showing up
// as peak RSS. Growing one is a decision: change its size here and say
// in PERFORMANCE.md "Per-node footprint" what the bytes buy.
func TestHotRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	// elem is the element size of a slice field of another package's type.
	elem := func(typ reflect.Type, field string) uintptr {
		f, ok := typ.FieldByName(field)
		if !ok {
			t.Fatalf("%v has no field %s", typ, field)
		}
		return f.Type.Elem().Size()
	}
	for _, r := range []struct {
		name       string
		size, want uintptr
	}{
		{"eventsim.event (a kernel queue entry)", elem(reflect.TypeFor[eventsim.Sim](), "arena"), 56},
		{"gossip.bufEntry (a buffered event)", elem(reflect.TypeFor[gossip.Buffer](), "ents"), 16},
		{"core.wireMsg (an envelope)", unsafe.Sizeof(wireMsg{}), 80},
		{"core.pendingMsg (a message parked for the barrier)", unsafe.Sizeof(pendingMsg{}), 40},
		{"core.deferredAudit (an audit parked for the barrier)", unsafe.Sizeof(deferredAudit{}), 12},
		{"core.Node", unsafe.Sizeof(Node{}), 192},
	} {
		if r.size != r.want {
			t.Errorf("%s is %d bytes, pinned at %d", r.name, r.size, r.want)
		}
	}
}
