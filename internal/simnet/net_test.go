package simnet

import (
	"testing"
	"time"

	"fairgossip/internal/eventsim"
)

// recorder is a Handler that appends every delivery.
type recorder struct {
	got []Message
}

func (r *recorder) HandleMessage(msg Message) { r.got = append(r.got, msg) }

func build(t *testing.T, n int, cfg Config) (*eventsim.Sim, *Network, []*recorder) {
	t.Helper()
	sim := eventsim.New(1)
	net := New(sim, cfg)
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = &recorder{}
		if id := net.AddNode(recs[i]); id != NodeID(i) {
			t.Fatalf("AddNode returned %d, want %d", id, i)
		}
	}
	return sim, net, recs
}

func TestDelivery(t *testing.T) {
	sim, net, recs := build(t, 2, Config{Latency: ConstantLatency(5 * time.Millisecond)})
	net.Send(0, 1, "hello", 10)
	sim.Run()
	if len(recs[1].got) != 1 {
		t.Fatalf("got %d messages", len(recs[1].got))
	}
	m := recs[1].got[0]
	if m.From != 0 || m.To != 1 || m.Payload.(string) != "hello" || m.Size != 10 {
		t.Fatalf("message corrupted: %+v", m)
	}
	if sim.Now() != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", sim.Now())
	}
}

func TestTrafficAccounting(t *testing.T) {
	sim, net, _ := build(t, 3, Config{})
	net.Send(0, 1, nil, 100)
	net.Send(0, 2, nil, 50)
	net.Send(1, 0, nil, 25)
	sim.Run()
	if tot := net.TotalTraffic(); tot != (Traffic{MsgsSent: 3, BytesSent: 175, MsgsRecv: 3}) {
		t.Errorf("total: %+v", tot)
	}
}

func TestLossRateApproximate(t *testing.T) {
	sim, net, recs := build(t, 2, Config{Loss: 0.3})
	const total = 10000
	for i := 0; i < total; i++ {
		net.Send(0, 1, nil, 1)
	}
	sim.Run()
	got := len(recs[1].got)
	// 0.7·10000 = 7000; allow ±3σ ≈ ±137.
	if got < 6800 || got > 7200 {
		t.Fatalf("delivered %d of %d at 30%% loss", got, total)
	}
	if d := net.TotalTraffic().Dropped; int(d) != total-got {
		t.Fatalf("dropped counter %d, want %d", d, total-got)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	sim, net, recs := build(t, 2, Config{Latency: ConstantLatency(time.Millisecond)})
	net.SetUp(1, false)
	net.Send(0, 1, nil, 1)
	sim.Run()
	if len(recs[1].got) != 0 {
		t.Fatal("down node received a message")
	}
	// Crash during flight: message sent while up, target goes down before delivery.
	net.SetUp(1, true)
	net.Send(0, 1, nil, 1)
	net.SetUp(1, false)
	sim.Run()
	if len(recs[1].got) != 0 {
		t.Fatal("message delivered to node that crashed in flight")
	}
	// Down nodes cannot send.
	net.Send(1, 0, nil, 1)
	sim.Run()
	if len(recs[0].got) != 0 {
		t.Fatal("down node sent a message")
	}
	if tot := net.TotalTraffic(); tot.MsgsSent != 2 {
		t.Fatalf("down node's send was accounted: %d sends, want 2", tot.MsgsSent)
	}
	// Restart restores delivery.
	net.SetUp(1, true)
	net.Send(0, 1, nil, 1)
	sim.Run()
	if len(recs[1].got) != 1 {
		t.Fatal("restarted node did not receive")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	sim, net, recs := build(t, 4, Config{})
	net.Partition([]NodeID{0, 1})
	net.Send(0, 1, nil, 1) // same side
	net.Send(0, 2, nil, 1) // cross
	net.Send(3, 2, nil, 1) // same side (other group)
	net.Send(2, 1, nil, 1) // cross
	sim.Run()
	if len(recs[1].got) != 1 || len(recs[2].got) != 1 {
		t.Fatalf("partition semantics wrong: %d %d", len(recs[1].got), len(recs[2].got))
	}
	net.Heal()
	net.Send(0, 2, nil, 1)
	sim.Run()
	if len(recs[2].got) != 2 {
		t.Fatal("heal did not restore connectivity")
	}
}

func TestUnknownAddressesAreSilentDrops(t *testing.T) {
	sim, net, recs := build(t, 1, Config{})
	net.Send(0, 99, nil, 1)
	net.Send(0, None, nil, 1)
	net.Send(99, 0, nil, 1)
	sim.Run()
	if len(recs[0].got) != 0 {
		t.Fatal("unexpected delivery")
	}
	if net.TotalTraffic().MsgsSent != 0 {
		t.Fatal("sends to unknown nodes must not be accounted")
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	sim := eventsim.New(3)
	model := UniformLatency(2*time.Millisecond, 8*time.Millisecond)
	for i := 0; i < 1000; i++ {
		d := model(sim.Rand(), 0, 1)
		if d < 2*time.Millisecond || d >= 8*time.Millisecond {
			t.Fatalf("latency %v out of bounds", d)
		}
	}
	// Degenerate range collapses to constant.
	c := UniformLatency(5*time.Millisecond, 5*time.Millisecond)
	if d := c(sim.Rand(), 0, 1); d != 5*time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
}

func TestLatencyOrderingIndependentMessages(t *testing.T) {
	// With uniform latency, messages may arrive out of send order —
	// verify the simulator delivers each at its own sampled time.
	sim, net, recs := build(t, 2, Config{Latency: UniformLatency(time.Millisecond, 10*time.Millisecond)})
	for i := 0; i < 50; i++ {
		net.Send(0, 1, i, 1)
	}
	sim.Run()
	if len(recs[1].got) != 50 {
		t.Fatalf("delivered %d of 50", len(recs[1].got))
	}
	seen := make(map[int]bool)
	for _, m := range recs[1].got {
		seen[m.Payload.(int)] = true
	}
	if len(seen) != 50 {
		t.Fatal("payload corruption or duplication")
	}
}

func TestNegativeSizeCoerced(t *testing.T) {
	sim, net, recs := build(t, 2, Config{})
	net.Send(0, 1, nil, -5)
	sim.Run()
	if len(recs[1].got) != 1 || recs[1].got[0].Size != 0 {
		t.Fatal("negative size must coerce to 0")
	}
}

func TestSelfSend(t *testing.T) {
	sim, net, recs := build(t, 1, Config{})
	net.Send(0, 0, "me", 3)
	sim.Run()
	if len(recs[0].got) != 1 {
		t.Fatal("self-send not delivered")
	}
}

// checkConservation asserts the network-wide counter invariant: every
// accounted send is eventually delivered or counted as a drop.
func checkConservation(t *testing.T, net *Network) {
	t.Helper()
	tot := net.TotalTraffic()
	if tot.MsgsSent != tot.MsgsRecv+tot.Dropped {
		t.Fatalf("conservation broken: sent %d != recv %d + dropped %d",
			tot.MsgsSent, tot.MsgsRecv, tot.Dropped)
	}
}

func TestDropConservationUnderLoss(t *testing.T) {
	sim, net, _ := build(t, 4, Config{Loss: 0.25})
	for i := 0; i < 4000; i++ {
		net.Send(NodeID(i%4), NodeID((i+1)%4), nil, 8)
	}
	sim.Run()
	checkConservation(t, net)
	if net.TotalTraffic().Dropped == 0 {
		t.Fatal("25% loss produced zero drops")
	}
}

func TestDropConservationUnderPartition(t *testing.T) {
	sim, net, _ := build(t, 6, Config{})
	net.Partition([]NodeID{0, 1, 2})
	for i := 0; i < 600; i++ {
		net.Send(NodeID(i%6), NodeID((i+3)%6), nil, 8) // all cross-partition
	}
	sim.Run()
	checkConservation(t, net)
	// Cross-partition sends are dropped at delivery time.
	if d := net.TotalTraffic().Dropped; d != 600 {
		t.Fatalf("dropped %d of 600 cross-partition sends", d)
	}
	net.Heal()
	net.Send(0, 3, nil, 8)
	sim.Run()
	checkConservation(t, net)
}

func TestDropConservationUnderCrash(t *testing.T) {
	sim, net, recs := build(t, 3, Config{Latency: ConstantLatency(time.Millisecond)})
	// In-flight toward a node that crashes before delivery.
	for i := 0; i < 50; i++ {
		net.Send(0, 2, nil, 8)
		net.Send(1, 2, nil, 8)
	}
	net.SetUp(2, false)
	sim.Run()
	checkConservation(t, net)
	if len(recs[2].got) != 0 {
		t.Fatal("crashed node received messages")
	}
	if d := net.TotalTraffic().Dropped; d != 100 {
		t.Fatalf("crash-time drops: %d, want 100", d)
	}
	// A down sender is never accounted at all, so the invariant still holds.
	net.Send(2, 0, nil, 8)
	sim.Run()
	checkConservation(t, net)
	// Restart and mix loss + crash in one run.
	net.SetUp(2, true)
	net.SetLoss(0.5)
	for i := 0; i < 1000; i++ {
		net.Send(0, 2, nil, 8)
	}
	sim.Run()
	checkConservation(t, net)
}

// The send→deliver cycle must be allocation-free in steady state: message
// records ride inline in pooled kernel events instead of heap-allocated
// closures.
func TestSendDeliverZeroAlloc(t *testing.T) {
	sim := eventsim.New(1)
	net := New(sim, Config{Latency: ConstantLatency(time.Microsecond)})
	a := net.AddNode(nopHandler{})
	b := net.AddNode(nopHandler{})
	payload := &struct{ x int }{}
	for i := 0; i < 64; i++ { // warm the kernel's arena and heap
		net.Send(a, b, payload, 64)
	}
	sim.Run()
	avg := testing.AllocsPerRun(1000, func() {
		net.Send(a, b, payload, 64)
		sim.Step()
	})
	t.Logf("allocs: a simulated message's Send → delivery costs %.0f, pin 0", avg)
	if avg != 0 {
		t.Fatalf("Send+deliver allocates %.2f times per op, want 0", avg)
	}
}

type nopHandler struct{}

func (nopHandler) HandleMessage(Message) {}

func BenchmarkSendDeliver(b *testing.B) {
	sim := eventsim.New(1)
	net := New(sim, Config{Latency: ConstantLatency(time.Microsecond)})
	r := &recorder{}
	a := net.AddNode(r)
	c := net.AddNode(&recorder{})
	_ = c
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(a, c, nil, 64)
		if i%1024 == 0 {
			sim.Run()
		}
	}
	sim.Run()
}

func TestSetLatencySwapsMidRun(t *testing.T) {
	sim, net, recs := build(t, 2, Config{Latency: ConstantLatency(5 * time.Millisecond)})
	net.Send(0, 1, "slow-model-pending", 1)
	net.SetLatency(ConstantLatency(50 * time.Millisecond)) // in-flight msg keeps 5ms
	net.Send(0, 1, "new-model", 1)
	sim.Run()
	if len(recs[1].got) != 2 {
		t.Fatalf("got %d messages", len(recs[1].got))
	}
	if sim.Now() != 50*time.Millisecond {
		t.Fatalf("last delivery at %v, want 50ms under the swapped model", sim.Now())
	}
	net.SetLatency(nil) // restores the 1ms default
	net.Send(0, 1, "default", 1)
	start := sim.Now()
	sim.Run()
	if sim.Now()-start != time.Millisecond {
		t.Fatalf("nil SetLatency gave %v delay, want the 1ms default", sim.Now()-start)
	}
}

// --- Sharding surface --------------------------------------------------------

type rcPayload struct {
	refs     int32
	released int32
}

func (p *rcPayload) Retain()  { p.refs++ }
func (p *rcPayload) Release() { p.refs--; p.released++ }

func TestRemoteHandOff(t *testing.T) {
	sim := eventsim.New(1)
	n := New(sim, Config{Latency: ConstantLatency(time.Millisecond)})
	sink := &recorder{}
	local := n.AddNode(sink)
	remote := n.AddRemote()

	var handed []eventsim.Msg
	var delays []time.Duration
	n.SetRemote(func(m eventsim.Msg, d time.Duration) { handed = append(handed, m); delays = append(delays, d) })

	n.Send(local, remote, "x", 10)
	if len(handed) != 1 || NodeID(handed[0].To) != remote || handed[0].Size != 10 {
		t.Fatalf("remote hook got %+v", handed)
	}
	if delays[0] != time.Millisecond {
		t.Fatalf("delay = %v, want the latency draw", delays[0])
	}
	// The send is counted like any other.
	if st := n.TotalTraffic(); st.MsgsSent != 1 || st.BytesSent != 10 {
		t.Fatalf("sender stats = %+v", st)
	}
	// Nothing was scheduled locally.
	if sim.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", sim.Pending())
	}
}

func TestRemoteWithoutHookCountsDrop(t *testing.T) {
	sim := eventsim.New(1)
	n := New(sim, Config{})
	local := n.AddNode(&recorder{})
	remote := n.AddRemote()
	n.Send(local, remote, "x", 10)
	if st := n.TotalTraffic(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (no remote hook installed)", st.Dropped)
	}
}

func TestInjectAtDeliversWithAccounting(t *testing.T) {
	sim := eventsim.New(1)
	n := New(sim, Config{})
	sink := &recorder{}
	dst := n.AddNode(sink)
	src := n.AddRemote() // the sender lives elsewhere

	n.InjectAt(5*time.Millisecond, eventsim.Msg{From: int32(src), To: int32(dst), Payload: "hello", Size: 7})
	sim.Run()
	if len(sink.got) != 1 || sink.got[0].Payload != "hello" {
		t.Fatalf("delivered %+v", sink.got)
	}
	if st := n.TotalTraffic(); st.MsgsRecv != 1 {
		t.Fatalf("recv stats = %+v", st)
	}
	// A past timestamp coerces to Now rather than firing out of order.
	n.InjectAt(-1, eventsim.Msg{From: int32(src), To: int32(dst), Payload: "late", Size: 1})
	sim.Run()
	if len(sink.got) != 2 {
		t.Fatalf("late injection not delivered")
	}
}

func TestInjectAtDropsToDownNodeCounted(t *testing.T) {
	sim := eventsim.New(1)
	n := New(sim, Config{})
	dst := n.AddNode(&recorder{})
	src := n.AddRemote()
	n.SetUp(dst, false)
	n.InjectAt(0, eventsim.Msg{From: int32(src), To: int32(dst), Payload: "x", Size: 1})
	sim.Run()
	if st := n.TotalTraffic(); st.Dropped != 1 {
		t.Fatalf("delivery-time drop to a down node not counted: %+v", st)
	}
}

func TestRefcountedLifecycle(t *testing.T) {
	sim := eventsim.New(1)
	n := New(sim, Config{})
	a := n.AddNode(&recorder{})
	b := n.AddNode(&recorder{})
	c := n.AddNode(&recorder{})

	p := &rcPayload{}
	n.Send(a, b, p, 1)
	n.Send(a, c, p, 1)
	if p.refs != 2 {
		t.Fatalf("refs after 2 in-flight sends = %d, want 2", p.refs)
	}
	sim.Run()
	if p.refs != 0 || p.released != 2 {
		t.Fatalf("after drain refs=%d released=%d, want 0/2", p.refs, p.released)
	}

	// A delivery-time drop (down destination) still releases.
	q := &rcPayload{}
	n.SetUp(c, false)
	n.Send(a, c, q, 1)
	if q.refs != 1 {
		t.Fatalf("refs = %d, want 1", q.refs)
	}
	sim.Run()
	if q.refs != 0 || q.released != 1 {
		t.Fatalf("drop path did not release: refs=%d released=%d", q.refs, q.released)
	}

	// A send-time loss never retains (the message was never in flight).
	r := &rcPayload{}
	n.SetLoss(1)
	n.Send(a, b, r, 1)
	if r.refs != 0 || r.released != 0 {
		t.Fatalf("send-time loss touched the refcount: %+v", r)
	}

	// The remote hand-off retains; the destination shard's InjectAt
	// delivery releases.
	n.SetLoss(0)
	rem := n.AddRemote()
	s := &rcPayload{}
	n.SetRemote(func(m eventsim.Msg, d time.Duration) {
		// Mailbox holds the ref across the barrier; merge back here.
		sim2 := eventsim.New(2)
		n2 := New(sim2, Config{})
		for range m.To + 1 { // every id up to the destination's
			n2.AddNode(&recorder{})
		}
		n2.InjectAt(0, m)
		sim2.Run()
	})
	n.Send(a, rem, s, 1)
	if s.refs != 0 || s.released != 1 {
		t.Fatalf("remote round-trip refs=%d released=%d, want 0/1", s.refs, s.released)
	}
}
