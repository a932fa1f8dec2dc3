package gossip

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// runDissemination builds n classic peers with the given fanout, publishes
// one event at node 0, runs `rounds` gossip rounds, and returns the
// fraction of peers that delivered it.
func runDissemination(seed int64, n, fanout, rounds int, loss float64) float64 {
	sim := eventsim.New(seed)
	net := simnet.New(sim, simnet.Config{
		Latency: simnet.ConstantLatency(time.Millisecond),
		Loss:    loss,
	})
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = NewPeer(
			simnet.NodeID(i), net,
			membership.FullSampler{Self: simnet.NodeID(i), N: n},
			rand.New(rand.NewSource(seed*1000+int64(i))),
			Config{Fanout: fanout, Batch: 4, BufferMaxAge: rounds + 1},
		)
	}
	for _, p := range peers {
		net.AddNode(p)
	}
	const period = 10 * time.Millisecond
	for _, p := range peers {
		p := p
		sim.Every(period, time.Millisecond, p.Round)
	}
	peers[0].Publish(&pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 1}, Topic: "t"})
	sim.RunUntil(time.Duration(rounds) * period)

	covered := 0
	for _, p := range peers {
		if p.Delivered() > 0 {
			covered++
		}
	}
	return float64(covered) / float64(n)
}

func TestDisseminationReachesAllWithLogFanout(t *testing.T) {
	n := 128
	fanout := int(math.Ceil(math.Log(float64(n)))) + 2 // ln(128)≈4.85 → 7
	ratio := runDissemination(1, n, fanout, 15, 0)
	if ratio < 0.99 {
		t.Fatalf("delivery ratio %.3f with fanout %d, want ≈1", ratio, fanout)
	}
}

func TestDisseminationPoorWithTinyFanout(t *testing.T) {
	// Fanout 1 with a short TTL cannot reach everyone.
	ratio := runDissemination(2, 256, 1, 8, 0)
	if ratio > 0.8 {
		t.Fatalf("fanout 1 covered %.3f of the system, expected partial coverage", ratio)
	}
}

func TestDisseminationMonotoneInFanout(t *testing.T) {
	// Average over seeds to smooth randomness.
	avg := func(fanout int) float64 {
		var s float64
		for seed := int64(0); seed < 3; seed++ {
			s += runDissemination(10+seed, 128, fanout, 10, 0)
		}
		return s / 3
	}
	lo, mid, hi := avg(1), avg(3), avg(6)
	if !(lo <= mid+0.05 && mid <= hi+0.02) {
		t.Fatalf("coverage not monotone-ish in fanout: %v %v %v", lo, mid, hi)
	}
	if hi < 0.99 {
		t.Fatalf("fanout 6 should cover ≈everything, got %.3f", hi)
	}
}

func TestDisseminationTolerates20PercentLoss(t *testing.T) {
	n := 128
	fanout := int(math.Ceil(math.Log(float64(n)))) + 3
	ratio := runDissemination(3, n, fanout, 15, 0.20)
	if ratio < 0.97 {
		t.Fatalf("delivery ratio %.3f under 20%% loss, want ≥0.97", ratio)
	}
}

func TestInterestFiltering(t *testing.T) {
	// A peer not interested must still forward (classic gossip) but not
	// deliver — the crux of the paper's unfairness complaint (§4.2).
	sim := eventsim.New(4)
	net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency(time.Millisecond)})
	n := 16
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		p := NewPeer(
			simnet.NodeID(i), net,
			membership.FullSampler{Self: simnet.NodeID(i), N: n},
			rand.New(rand.NewSource(int64(i))),
			Config{Fanout: 4, Batch: 4},
		)
		if i%2 == 1 {
			p.IsInterested = func(*pubsub.Event) bool { return false }
		}
		peers[i] = p
		net.AddNode(p)
	}
	for _, p := range peers {
		p := p
		sim.Every(10*time.Millisecond, time.Millisecond, p.Round)
	}
	peers[0].Publish(&pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 1}, Topic: "t"})
	sim.RunUntil(150 * time.Millisecond)

	for i, p := range peers {
		if i%2 == 1 && i != 0 {
			if p.Delivered() != 0 {
				t.Fatalf("uninterested peer %d delivered", i)
			}
			// They still carried traffic.
			if net.Stats(p.ID).BytesSent == 0 {
				t.Fatalf("uninterested peer %d forwarded nothing — not classic gossip", i)
			}
		}
	}
}

func TestOnDeliverCallbackAndCounts(t *testing.T) {
	sim := eventsim.New(5)
	net := simnet.New(sim, simnet.Config{})
	p := NewPeer(0, net, membership.FullSampler{Self: 0, N: 1}, rand.New(rand.NewSource(1)), Config{Fanout: 2, Batch: 2})
	net.AddNode(p)
	var got []*pubsub.Event
	p.OnDeliver = func(e *pubsub.Event) { got = append(got, e) }
	e := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 9}, Topic: "t"}
	p.Publish(e)
	p.Publish(e) // duplicate publish ignored
	if len(got) != 1 || p.Delivered() != 1 {
		t.Fatalf("delivered %d (callbacks %d), want 1", p.Delivered(), len(got))
	}
}

func TestHandleMessageIgnoresForeignPayload(t *testing.T) {
	sim := eventsim.New(6)
	net := simnet.New(sim, simnet.Config{})
	p := NewPeer(0, net, membership.FullSampler{Self: 0, N: 2}, rand.New(rand.NewSource(1)), Config{Fanout: 1})
	net.AddNode(p)
	p.HandleMessage(simnet.Message{From: 1, To: 0, Payload: "garbage", Size: 3})
	if p.Received() != 0 || p.Delivered() != 0 {
		t.Fatal("foreign payload processed")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	p := NewPeer(0, nil, nil, rand.New(rand.NewSource(1)), Config{Fanout: -3})
	if p.cfg.Fanout != 0 || p.cfg.Batch != 1 || p.cfg.Policy != PolicyRandom {
		t.Fatalf("defaults: %+v", p.cfg)
	}
	if p.cfg.BufferCap != 128 || p.cfg.BufferMaxAge != 8 || p.cfg.SeenCap != 4096 {
		t.Fatalf("defaults: %+v", p.cfg)
	}
}

func BenchmarkDisseminationRound(b *testing.B) {
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency(time.Microsecond)})
	const n = 64
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = NewPeer(simnet.NodeID(i), net,
			membership.FullSampler{Self: simnet.NodeID(i), N: n},
			rand.New(rand.NewSource(int64(i))),
			Config{Fanout: 5, Batch: 8})
		net.AddNode(peers[i])
	}
	var seq uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		peers[i%n].Publish(&pubsub.Event{ID: pubsub.EventID{Publisher: uint32(i % n), Seq: seq}, Topic: "t"})
		for _, p := range peers {
			p.Round()
		}
		sim.Run()
	}
}

type nopHandler struct{}

func (nopHandler) HandleMessage(simnet.Message) {}

// TestPeerRoundAllocs pins the classic peer's steady-state round at
// exactly three allocations: the fresh selection slice and the one boxed
// Msg (both held by in-flight payloads, so neither can be reused) plus
// the sampler's partner slice. The fanout sends and the deliveries they
// schedule must add nothing.
func TestPeerRoundAllocs(t *testing.T) {
	const n = 6
	sim := eventsim.New(7)
	net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency(time.Microsecond)})
	p := NewPeer(0, net, membership.FullSampler{Self: 0, N: n}, rand.New(rand.NewSource(7)),
		Config{Fanout: 3, Batch: 8, BufferMaxAge: 1 << 20})
	net.AddNode(p)
	for i := 1; i < n; i++ {
		net.AddNode(nopHandler{})
	}
	for i := 0; i < 32; i++ {
		p.Publish(&pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: uint32(i + 1)}, Topic: "t"})
	}
	round := func() {
		p.Round()
		sim.Run() // drain the fanout so the kernel arena stays warm, not growing
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 3 {
		t.Fatalf("classic round allocates %.2f times, want exactly 3 (selection, boxed Msg, partner sample)", avg)
	}
}
