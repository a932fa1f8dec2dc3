package live

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// viewsClean reports whether no up peer's view still holds any id in
// gone.
func viewsClean(c *Cluster, gone map[int]bool) bool {
	for i := 0; i < c.N(); i++ {
		if gone[i] || !c.Up(i) {
			continue
		}
		for _, q := range c.View(i) {
			if gone[q] {
				return false
			}
		}
	}
	return true
}

// TestLiveLeaveScrubsViews: a graceful leaver notifies its view
// neighbours with KindLeave envelopes, so the leaver's address is
// scrubbed from every survivor's view without waiting for probe
// timeouts — and the hand-off entries keep the survivors' degree up.
func TestLiveLeaveScrubsViews(t *testing.T) {
	c := mustCluster(t, Config{
		N: 10, Fanout: 3,
		RoundPeriod:  3 * time.Millisecond,
		ShuffleEvery: 1,
		Seed:         51,
	})
	c.Start()
	defer c.Stop()

	// Let the overlay mix before anyone departs.
	time.Sleep(30 * time.Millisecond)
	if !c.Leave(3) {
		t.Fatal("Leave(3) refused")
	}
	if c.Up(3) {
		t.Fatal("leaver still up")
	}
	gone := map[int]bool{3: true}
	if !eventually(t, 10*time.Second, func() bool { return viewsClean(c, gone) }) {
		t.Fatalf("a survivor still holds the leaver's address; views: %v", c.Views())
	}
	// Survivors keep a usable view after the hand-off.
	for i := 0; i < 10; i++ {
		if i != 3 && len(c.View(i)) == 0 {
			t.Errorf("peer %d left with an empty view", i)
		}
	}
}

// TestLiveDetectorEvictsCrashed: a peer that crashes WITHOUT notice is
// detected by its silence alone — unanswered shuffle offers accumulate
// strikes until every live peer evicts and quarantines the address.
// The detector rides ordinary Cyclon traffic: no probe messages exist
// to check for. Wall-clock smoke at the production constants; the logic
// is protocol.TestDetector's and core.TestDetectorScrubsCrashed's.
func TestLiveDetectorEvictsCrashed(t *testing.T) {
	c := mustCluster(t, Config{
		N: 8, Fanout: 3,
		RoundPeriod:  3 * time.Millisecond,
		ShuffleEvery: 1,
		Seed:         52,
	})
	c.Start()

	time.Sleep(30 * time.Millisecond)
	c.Crash(0)
	gone := map[int]bool{0: true}
	if !eventually(t, 20*time.Second, func() bool { return viewsClean(c, gone) }) {
		t.Fatalf("crashed peer still in a live view; views: %v", c.Views())
	}
	c.Stop()
	// The post-Stop snapshot (the scenario engine's authoritative read)
	// agrees: the address stayed out.
	for i, v := range c.Views() {
		if i == 0 {
			continue
		}
		for _, q := range v {
			if q == 0 {
				t.Fatalf("peer %d resurrected the dead address after Stop", i)
			}
		}
	}
}

// TestLiveJoinGiveUpBounded: a joiner whose seed (and whole cluster) is
// dead must not announce itself forever. It retries under capped
// exponential backoff, then gives up: JoinErr reports ErrJoinAbandoned
// and the abandonment is counted in Traffic().JoinGiveUps — visible,
// not part of the Dropped books (nothing was sent for the skipped
// announcements). Wall-clock smoke at the production constants (≈ 160
// membership rounds at worst); the logic is
// protocol.TestJoinerStopsAfterJoinAttempts's and
// core.TestJoinerGivesUpOnDeadSeed's.
func TestLiveJoinGiveUpBounded(t *testing.T) {
	c := mustCluster(t, Config{
		N: 2, Fanout: 2,
		RoundPeriod:  2 * time.Millisecond,
		ShuffleEvery: 1,
		Seed:         53,
	})
	c.Start()
	defer c.Stop()
	c.Crash(0)
	c.Crash(1)

	id, err := c.Join(0)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := c.JoinErr(id); err != nil {
		t.Fatalf("fresh joiner already reports %v", err)
	}
	if !eventually(t, 20*time.Second, func() bool { return c.JoinErr(id) != nil }) {
		t.Fatal("joiner never gave up against a dead cluster")
	}
	if err := c.JoinErr(id); !errors.Is(err, ErrJoinAbandoned) {
		t.Fatalf("JoinErr = %v, want ErrJoinAbandoned", err)
	}
	if got := c.Traffic().JoinGiveUps; got == 0 {
		t.Fatal("give-up not counted in Traffic().JoinGiveUps")
	}
}

// TestLiveCrashDuringLeaveRace: Leave racing Crash on the same peers,
// under publish load, on both transports. Whatever interleaving wins,
// the cluster must shut down without leaked goroutines and with the
// traffic books balanced: sent == recv + dropped (a KindLeave envelope
// to an already-dead neighbour is a counted drop, not a leak). Run
// under -race in CI.
func TestLiveCrashDuringLeaveRace(t *testing.T) {
	factories := map[string]transport.Factory{
		"chan": nil, // default in-process channels
		"udp":  transport.UDP(),
	}
	for name, factory := range factories {
		factory := factory
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c := mustCluster(t, Config{
				N: 16, Fanout: 4,
				RoundPeriod:  2 * time.Millisecond,
				ShuffleEvery: 1,
				Seed:         54,
				Transport:    factory,
			})
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
					c.Publish(k%4, "t", nil, []byte("load"))
					time.Sleep(time.Millisecond)
				}
			}()
			time.Sleep(20 * time.Millisecond)
			// For each victim, Leave and Crash race from two goroutines:
			// Leave may find the peer already down (a no-op), or the
			// crash may silence the peer mid-hand-off.
			for id := 4; id < 12; id++ {
				id := id
				wg.Add(2)
				go func() { defer wg.Done(); c.Leave(id) }()
				go func() { defer wg.Done(); c.Crash(id) }()
			}
			time.Sleep(30 * time.Millisecond)
			stopFlood.Store(true)
			wg.Wait()
			c.Stop()

			waitGoroutinesSettle(t, base, 5*time.Second)
			tr := c.Traffic()
			if tr.Sent == 0 {
				t.Fatal("no traffic flowed")
			}
			if tr.Sent != tr.Recv+tr.Dropped {
				t.Fatalf("traffic leak: sent %d != recv %d + dropped %d",
					tr.Sent, tr.Recv, tr.Dropped)
			}
			for id := 4; id < 12; id++ {
				if c.Up(id) {
					t.Errorf("victim %d still up", id)
				}
			}
		})
	}
}
