package live

import (
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// TestLiveJoinIntegratesAndDelivers: peers joining a running cluster
// bootstrap through their seed, grow real views via shuffles, and
// start delivering events published after they subscribed — on both
// transports.
func TestLiveJoinIntegratesAndDelivers(t *testing.T) {
	for name, factory := range map[string]transport.Factory{"chan": nil, "udp": transport.UDP()} {
		t.Run(name, func(t *testing.T) {
			c := mustCluster(t, Config{
				N: 12, Fanout: 4,
				RoundPeriod: 3 * time.Millisecond,
				Seed:        31,
				Transport:   factory,
			})
			var delivered atomic.Int64
			for i := 0; i < 12; i++ {
				c.Subscribe(i, pubsub.MatchAll())
				c.OnDeliver(i, func(*pubsub.Event) { delivered.Add(1) })
			}
			c.Start()
			defer c.Stop()

			joiners := make([]int, 0, 4)
			for k := 0; k < 4; k++ {
				id, err := c.Join(k % 12)
				if err != nil {
					t.Fatalf("join %d: %v", k, err)
				}
				if id != 12+k {
					t.Fatalf("joiner got id %d, want %d", id, 12+k)
				}
				if c.Addr(id) == "" {
					t.Fatalf("joiner %d has no transport address", id)
				}
				if _, ok := c.Subscribe(id, pubsub.MatchAll()); !ok {
					t.Fatalf("subscribe on joiner %d failed", id)
				}
				if !c.OnDeliver(id, func(*pubsub.Event) { delivered.Add(1) }) {
					t.Fatalf("OnDeliver on joiner %d failed", id)
				}
				joiners = append(joiners, id)
			}
			if c.N() != 16 {
				t.Fatalf("population %d after joins, want 16", c.N())
			}
			// Let the joiners' addresses spread a little, then publish.
			time.Sleep(30 * time.Millisecond)
			delivered.Store(0)
			if !c.Publish(3, "news", nil, []byte("for-everyone")) {
				t.Fatal("publish failed")
			}
			if !eventually(t, 10*time.Second, func() bool { return delivered.Load() == 16 }) {
				t.Fatalf("delivered %d of 16 (joiners not integrated?)", delivered.Load())
			}
			// A joiner must by now hold a real partial view, not just its seed.
			for _, id := range joiners {
				if v := c.View(id); len(v) < 2 {
					t.Fatalf("joiner %d view %v never grew past its seed", id, v)
				}
			}
		})
	}
}

// TestLiveJoinerLimitsFollowThePopulation: a joiner's controller is
// clamped by adaptive.DefaultLimits of the population it joins, as the
// simulator's always was — not of the founding Config.N. Seven founders
// have FanoutMin ⌈ln 7⌉ = 2; the eighth peer crosses the ⌈ln n⌉ step to
// 3. A start below the floor is clamped up to it, so the floor reads
// straight off Levers.
func TestLiveJoinerLimitsFollowThePopulation(t *testing.T) {
	c := mustCluster(t, Config{N: 7, Fanout: 1, TargetRatio: 1000, Seed: 36})
	id, err := c.Join(0)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	founder, _, _ := c.Levers(0)
	joiner, _, ok := c.Levers(id)
	if !ok || founder != 2 || joiner != 3 {
		t.Fatalf("fanout floors: founder %d, joiner %d (ok %v), want 2 and 3", founder, joiner, ok)
	}
}

// TestLiveJoinValidation: bad seeds and stopped clusters are errors;
// joining before Start is legal (the peer launches with the rest).
func TestLiveJoinValidation(t *testing.T) {
	c := mustCluster(t, Config{N: 4, RoundPeriod: 3 * time.Millisecond, Seed: 32})
	if _, err := c.Join(-1); err == nil {
		t.Fatal("negative seed accepted")
	}
	if _, err := c.Join(99); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	id, err := c.Join(0) // pre-start join
	if err != nil {
		t.Fatalf("pre-start join: %v", err)
	}
	var got atomic.Int64
	c.Subscribe(id, pubsub.MatchAll())
	c.OnDeliver(id, func(*pubsub.Event) { got.Add(1) })
	c.Start()
	c.Publish(1, "t", nil, []byte("x"))
	if !eventually(t, 5*time.Second, func() bool { return got.Load() == 1 }) {
		t.Fatalf("pre-start joiner delivered %d of 1", got.Load())
	}
	c.Stop()
	if _, err := c.Join(0); err == nil {
		t.Fatal("join after Stop accepted")
	}
}

// TestLiveJoinerCrashMidHandshake: joiners are crashed the instant they
// exist (before the handshake can complete), some through an
// already-crashed seed, while publishers keep the cluster under load.
// Everything must settle: zero leaked goroutines after Stop, and
// sent == recv + dropped still holds — a dead joiner is a counted drop
// bucket, not a leak (run under -race in CI).
func TestLiveJoinerCrashMidHandshake(t *testing.T) {
	base := runtime.NumGoroutine()
	c := mustCluster(t, Config{
		N: 12, Fanout: 4,
		RoundPeriod: 2 * time.Millisecond,
		Seed:        33,
	})
	for i := 0; i < 12; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()

	var wg sync.WaitGroup
	var stopFlood atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stopFlood.Load(); k++ {
			c.Publish(k%12, "t", nil, []byte("load"))
			time.Sleep(time.Millisecond)
		}
	}()

	c.Crash(5) // a dead seed: its joiner's handshake goes nowhere
	for k := 0; k < 6; k++ {
		seed := k % 12
		id, err := c.Join(seed)
		if err != nil {
			t.Fatalf("join via seed %d: %v", seed, err)
		}
		if k%2 == 0 {
			if !c.Crash(id) {
				t.Fatalf("crash of joiner %d failed", id)
			}
		}
	}
	time.Sleep(40 * time.Millisecond)
	stopFlood.Store(true)
	wg.Wait()
	c.Stop()

	waitGoroutinesSettle(t, base, 5*time.Second)
	tr := c.Traffic()
	if tr.Sent == 0 {
		t.Fatal("no traffic flowed")
	}
	if tr.Sent != tr.Recv+tr.Dropped {
		t.Fatalf("traffic leak: sent %d != recv %d + dropped %d", tr.Sent, tr.Recv, tr.Dropped)
	}
}

// TestLiveJoinRacesStop: Join hammering a cluster that stops underneath
// it must either succeed cleanly or return an error — never deadlock,
// leak, or panic (run under -race in CI).
func TestLiveJoinRacesStop(t *testing.T) {
	base := runtime.NumGoroutine()
	c := mustCluster(t, Config{N: 4, RoundPeriod: 2 * time.Millisecond, Seed: 34})
	c.Start()
	var wg sync.WaitGroup
	var stopFlood atomic.Bool
	var joined, refused atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopFlood.Load() {
			if _, err := c.Join(0); err != nil {
				refused.Add(1)
			} else {
				joined.Add(1)
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	stopFlood.Store(true)
	wg.Wait()
	if joined.Load() == 0 {
		t.Fatal("no join succeeded before Stop")
	}
	if refused.Load() == 0 {
		t.Fatal("no join was refused after Stop — the race hit nothing")
	}
	waitGoroutinesSettle(t, base, 5*time.Second)
}

// countingNet wraps a Net and counts the bytes each sender hands to its
// endpoint — an independent observer of what actually crossed the wire.
// With scribble set it also hashes every envelope before and after the
// substrate's Send and counts the ones that changed: Send may not write
// to the buffer it is given. It keeps no buffer itself — the sender (the
// shaper, for a held envelope) reuses it once Send returns.
type countingNet struct {
	inner    transport.Net
	scribble bool
	mu       sync.Mutex
	bytes    map[int]uint64
	mutated  int
}

func hashOf(buf []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(buf)
	return h.Sum64()
}

func (n *countingNet) Attach(id int, h transport.Handler) (transport.Transport, error) {
	tr, err := n.inner.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{net: n, id: id, inner: tr}, nil
}

func (n *countingNet) Close() error       { return n.inner.Close() }
func (n *countingNet) Release(buf []byte) { n.inner.Release(buf) }

type countingEndpoint struct {
	net   *countingNet
	id    int
	inner transport.Transport
}

func (e *countingEndpoint) Send(to int, buf []byte) error {
	var before uint64
	if e.net.scribble {
		before = hashOf(buf)
	}
	err := e.inner.Send(to, buf)
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if e.net.scribble && hashOf(buf) != before {
		e.net.mutated++
	}
	if err == nil {
		e.net.bytes[e.id] += uint64(len(buf))
	}
	return err
}

func (e *countingEndpoint) LocalAddr() string { return e.inner.LocalAddr() }

// TestLiveShuffleBytesChargedByteForByte: on a calm cluster (no faults,
// so every charged send reaches the transport) the ledger's per-peer
// app + infra bytes must equal exactly what the transport observed
// leaving that peer: gossip and membership alike, a send is charged the
// one size function, wire.Msg.Size, and that is the length encoded. Every
// peer must also have paid real infrastructure bytes: shuffles are
// charged contribution, not free.
func TestLiveShuffleBytesChargedByteForByte(t *testing.T) {
	counter := &countingNet{bytes: make(map[int]uint64)}
	factory := func(n int) (transport.Net, error) {
		inner, err := transport.NewChanNet(n)
		if err != nil {
			return nil, err
		}
		counter.inner = inner
		return counter, nil
	}
	c := mustCluster(t, Config{
		N: 10, Fanout: 3,
		RoundPeriod: 2 * time.Millisecond,
		Seed:        35,
		Transport:   factory,
	})
	var delivered atomic.Int64
	for i := 0; i < 10; i++ {
		c.Subscribe(i, pubsub.MatchAll())
		c.OnDeliver(i, func(*pubsub.Event) { delivered.Add(1) })
	}
	c.Start()
	joiner, err := c.Join(2) // the joiner's handshake is infra traffic too
	if err != nil {
		t.Fatal(err)
	}
	c.Subscribe(joiner, pubsub.MatchAll())
	for k := 0; k < 4; k++ {
		c.Publish(k, "t", nil, []byte("pay-per-byte"))
	}
	eventually(t, 5*time.Second, func() bool { return delivered.Load() >= 40 })
	time.Sleep(30 * time.Millisecond) // a few more shuffle periods
	c.Stop()

	counter.mu.Lock()
	defer counter.mu.Unlock()
	sawInfra := false
	for id := 0; id <= joiner; id++ {
		a := c.Ledger().Account(id)
		charged := a.BytesSent[fairness.ClassApp] + a.BytesSent[fairness.ClassInfra]
		if charged != counter.bytes[id] {
			t.Fatalf("peer %d charged %d bytes, transport saw %d — ledger and wire drifted",
				id, charged, counter.bytes[id])
		}
		if a.BytesSent[fairness.ClassInfra] > 0 {
			sawInfra = true
		}
	}
	if !sawInfra {
		t.Fatal("no peer paid infrastructure bytes — shuffles are not being charged")
	}
}
