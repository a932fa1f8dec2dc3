package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// waitGoroutinesSettle polls until the goroutine count is back at (or
// below) base plus slack, tolerating runtime background goroutines.
func waitGoroutinesSettle(t *testing.T, base int, timeout time.Duration) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		runtime.GC() // nudge finalizers so stragglers exit
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines did not settle: %d now vs %d at start\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestLiveStopUnderPublishLoad: Stop() while concurrent publishers are
// hammering the cluster must terminate promptly, without goroutine
// leaks and without a send-on-closed-channel panic (run under -race in
// CI). Publishers racing Stop simply start seeing Publish return false.
func TestLiveStopUnderPublishLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	c := mustCluster(t, Config{
		N: 24, Fanout: 5, Batch: 16,
		RoundPeriod: 2 * time.Millisecond,
		TargetRatio: 1000, // keep the controller path hot during shutdown
		Seed:        42,
	})
	for i := 0; i < 24; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()

	var wg sync.WaitGroup
	var stopFlood atomic.Bool
	var accepted, rejected atomic.Int64
	for p := 0; p < 8; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; !stopFlood.Load(); k++ {
				if c.Publish(p, "t", nil, []byte("under-load")) {
					accepted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}()
	}

	// Let the flood build, then stop the cluster underneath it.
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not terminate under publish load")
	}
	stopFlood.Store(true)
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("no publish went through before shutdown — the load never hit the cluster")
	}
	if rejected.Load() == 0 {
		t.Fatal("no publish was rejected after shutdown — Stop raced nothing")
	}
	waitGoroutinesSettle(t, base, 5*time.Second)

	// Post-stop API calls stay safe no-ops.
	if c.Publish(0, "t", nil, nil) {
		t.Fatal("publish succeeded after Stop")
	}
	c.Stop()
}

// TestLiveStopUnderFaultChurn: shutdown races fault injection (crash,
// rejoin, partition, loss churn) without deadlock or leak — the
// scenario engine drives exactly this interleaving.
func TestLiveStopUnderFaultChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	c := mustCluster(t, Config{N: 16, Fanout: 4, RoundPeriod: 2 * time.Millisecond, Seed: 43})
	for i := 0; i < 16; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	var wg sync.WaitGroup
	var stopFlood atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stopFlood.Load(); k++ {
			c.Crash(k % 16)
			c.SetShape(transport.Profile{Loss: float64(k%10) / 20})
			c.Partition([]int{0, 1, 2, 3})
			c.Publish((k+4)%16, "t", nil, nil)
			c.Rejoin(k % 16)
			c.Heal()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not terminate under fault churn")
	}
	stopFlood.Store(true)
	wg.Wait()
	waitGoroutinesSettle(t, base, 5*time.Second)
}

// goroutineBaseline samples the goroutine count once it has stopped
// moving, so a straggler still exiting from an earlier test is not
// mistaken for part of this test's baseline.
func goroutineBaseline() int {
	for {
		a := runtime.NumGoroutine()
		time.Sleep(2 * time.Millisecond)
		if runtime.NumGoroutine() == a {
			return a
		}
	}
}

// TestShapedClusterGoroutines: a running shaped cluster with envelopes
// held runs exactly one goroutine per peer and its clock's — the holds
// are entries on the clock, and the shaper runs no goroutine of its own.
func TestShapedClusterGoroutines(t *testing.T) {
	const n = 6
	base := goroutineBaseline()
	c := mustCluster(t, Config{N: n, Seed: 3, Shape: &transport.Profile{Delay: time.Hour}})
	for i := range n {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	c.Publish(0, "t", nil, []byte("held for an hour"))
	if held := c.net.Held(); held == 0 {
		t.Fatal("a publish held nothing; the shaper is not in the path")
	}
	if got := runtime.NumGoroutine(); got != base+n+1 {
		t.Fatalf("%d goroutines on a running shaped cluster, want %d (%d peers and the clock's)", got, base+n+1, n)
	}
	c.Stop()
	waitGoroutinesSettle(t, base, 5*time.Second)
}

// TestRunRoundsAndSettleAreBounded: RunRounds and Settle wait on the
// cluster's clock, so they return in bounded time on a cluster never
// started and at once on a stopped one, whose clock is closed, and a
// RunRounds that is waiting when Stop closes the clock returns with it.
func TestRunRoundsAndSettleAreBounded(t *testing.T) {
	within := func(what string, d time.Duration, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(d * raceDeadlineScale):
			t.Fatalf("%s did not return within %v", what, d*raceDeadlineScale)
		}
	}
	cfg := Config{N: 3, RoundPeriod: 2 * time.Millisecond, Seed: 1}
	idle := mustCluster(t, cfg)
	within("RunRounds(3) on a cluster never started", time.Second, func() { idle.RunRounds(3) })
	within("Settle(3) on a cluster never started", 2*time.Second, func() { idle.Settle(3) })
	idle.Stop()
	within("RunRounds(1000) on a stopped cluster", 100*time.Millisecond, func() { idle.RunRounds(1000) })
	within("Settle(1000) on a stopped cluster", 100*time.Millisecond, func() { idle.Settle(1000) })

	for _, shape := range []*transport.Profile{nil, {Delay: time.Hour}} {
		cfg.Shape = shape
		c := mustCluster(t, cfg)
		c.Start()
		waiting := make(chan struct{})
		go func() {
			c.RunRounds(1_000_000)
			close(waiting)
		}()
		time.Sleep(5 * time.Millisecond)
		within("Stop", 5*time.Second, c.Stop)
		within("RunRounds(1000000) across Stop", time.Second, func() { <-waiting })
	}
}
