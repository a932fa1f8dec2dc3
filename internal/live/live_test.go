package live

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

func mustCluster(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestLiveDisseminationReachesEveryone(t *testing.T) {
	c := mustCluster(t, Config{N: 24, Fanout: 5, RoundPeriod: 5 * time.Millisecond, Seed: 1})
	var delivered atomic.Int64
	for i := 0; i < 24; i++ {
		if _, ok := c.Subscribe(i, pubsub.MatchAll()); !ok {
			t.Fatal("subscribe failed")
		}
		if !c.OnDeliver(i, func(*pubsub.Event) { delivered.Add(1) }) {
			t.Fatal("OnDeliver failed")
		}
	}
	c.Start()
	defer c.Stop()
	if !c.Publish(3, "news", nil, []byte("payload")) {
		t.Fatal("publish failed")
	}
	if !eventually(t, 5*time.Second, func() bool { return delivered.Load() == 24 }) {
		t.Fatalf("delivered %d of 24", delivered.Load())
	}
}

func TestLiveInterestFiltering(t *testing.T) {
	c := mustCluster(t, Config{N: 12, Fanout: 4, RoundPeriod: 5 * time.Millisecond, Seed: 2})
	var hot, cold atomic.Int64
	for i := 0; i < 12; i++ {
		i := i
		if i%2 == 0 {
			c.Subscribe(i, pubsub.MustParse(`price > 100`))
		} else {
			c.Subscribe(i, pubsub.MustParse(`price <= 100`))
		}
		c.OnDeliver(i, func(ev *pubsub.Event) {
			if i%2 == 0 {
				hot.Add(1)
			} else {
				cold.Add(1)
			}
		})
	}
	c.Start()
	defer c.Stop()
	c.Publish(0, "ticks", []pubsub.Attr{{Key: "price", Val: pubsub.Num(150)}}, nil)
	if !eventually(t, 5*time.Second, func() bool { return hot.Load() == 6 }) {
		t.Fatalf("hot deliveries %d of 6", hot.Load())
	}
	// Give stragglers a moment, then confirm no misdelivery.
	time.Sleep(50 * time.Millisecond)
	if cold.Load() != 0 {
		t.Fatalf("cold group delivered %d events", cold.Load())
	}
}

func TestLiveLedgerAccounting(t *testing.T) {
	c := mustCluster(t, Config{N: 8, Fanout: 3, RoundPeriod: 5 * time.Millisecond, Seed: 3})
	for i := 0; i < 8; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	defer c.Stop()
	c.Publish(0, "t", nil, []byte("x"))
	if !eventually(t, 5*time.Second, func() bool {
		var d uint64
		for i := 0; i < 8; i++ {
			d += c.Ledger().Account(i).Delivered
		}
		return d == 8
	}) {
		t.Fatal("deliveries not accounted")
	}
	if c.Ledger().Account(0).Published != 1 {
		t.Fatal("publish not accounted")
	}
	r := c.Report()
	if r.N != 8 {
		t.Fatalf("report over %d nodes", r.N)
	}
}

func TestLiveAdaptiveLeversMove(t *testing.T) {
	c := mustCluster(t, Config{
		N: 16, Fanout: 8, Batch: 16,
		RoundPeriod: 3 * time.Millisecond,
		TargetRatio: 100, // tight: over-contributors must shed
		Seed:        4,
	})
	for i := 0; i < 16; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	defer c.Stop()
	for k := 0; k < 10; k++ {
		c.Publish(k%16, "t", nil, make([]byte, 64))
		time.Sleep(5 * time.Millisecond)
	}
	moved := eventually(t, 5*time.Second, func() bool {
		for i := 0; i < c.N(); i++ {
			f, b, ok := c.Levers(i)
			if ok && (f != 8 || b != 16) {
				return true
			}
		}
		return false
	})
	if !moved {
		t.Fatal("no lever moved under adaptation")
	}
}

func TestLiveUnsubscribeStopsDelivery(t *testing.T) {
	c := mustCluster(t, Config{N: 6, Fanout: 3, RoundPeriod: 5 * time.Millisecond, Seed: 5})
	sub, _ := c.Subscribe(5, pubsub.MatchAll())
	c.Start()
	defer c.Stop()
	if !c.Unsubscribe(5, sub) {
		t.Fatal("unsubscribe failed")
	}
	c.Publish(0, "t", nil, nil)
	time.Sleep(100 * time.Millisecond)
	if d := c.Ledger().Account(5).Delivered; d != 0 {
		t.Fatalf("delivered %d after unsubscribe", d)
	}
	if c.Unsubscribe(5, sub) {
		t.Fatal("double unsubscribe succeeded")
	}
}

func TestLiveStopTerminates(t *testing.T) {
	c := mustCluster(t, Config{N: 16, Fanout: 4, RoundPeriod: 2 * time.Millisecond, Seed: 6})
	for i := 0; i < 16; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	c.Publish(0, "t", nil, nil)
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate")
	}
	// API calls after Stop are safe no-ops.
	if c.Publish(0, "t", nil, nil) {
		t.Fatal("publish succeeded after stop")
	}
	c.Stop() // idempotent
}

func TestLiveConcurrentPublishers(t *testing.T) {
	c := mustCluster(t, Config{
		N: 10, Fanout: 4, Batch: 32,
		RoundPeriod:  3 * time.Millisecond,
		BufferMaxAge: 24,
		Seed:         7,
	})
	for i := 0; i < 10; i++ {
		c.Subscribe(i, pubsub.MatchAll())
	}
	c.Start()
	defer c.Stop()
	var wg sync.WaitGroup
	// Paced publishing: an unpaced burst would exceed what batch × buffer
	// TTL can spread (the EXP-A4 starvation regime) and lose events
	// legitimately.
	const perPublisher = 10
	for p := 0; p < 10; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perPublisher; k++ {
				c.Publish(p, "t", nil, nil)
				time.Sleep(3 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := uint64(10 * perPublisher * 10)
	if !eventually(t, 10*time.Second, func() bool {
		var d uint64
		for i := 0; i < 10; i++ {
			d += c.Ledger().Account(i).Delivered
		}
		return d == want
	}) {
		var d uint64
		for i := 0; i < 10; i++ {
			d += c.Ledger().Account(i).Delivered
		}
		t.Fatalf("delivered %d of %d", d, want)
	}
}

func TestLiveInvalidIDs(t *testing.T) {
	c := mustCluster(t, Config{N: 4, Seed: 8})
	if _, ok := c.Subscribe(-1, pubsub.MatchAll()); ok {
		t.Fatal("negative id accepted")
	}
	if _, ok := c.Subscribe(99, pubsub.MatchAll()); ok {
		t.Fatal("oob id accepted")
	}
	if c.Publish(99, "t", nil, nil) {
		t.Fatal("oob publish accepted")
	}
}

func TestLiveConfigDefaults(t *testing.T) {
	c := mustCluster(t, Config{})
	if c.N() != 2 {
		t.Fatalf("default N = %d", c.N())
	}
	if c.cfg.Fanout != 4 || c.cfg.Batch != 8 || c.cfg.InboxDepth != 1024 {
		t.Fatalf("defaults: %+v", c.cfg)
	}
	if c.cfg.ViewCap != 16 || c.cfg.ShuffleEvery != 2 {
		t.Fatalf("membership defaults: %+v", c.cfg)
	}
}

// TestFaultDrawsLeaveTheProtocolStream: link loss draws from the
// shaper's stream, never the protocol's, so turning loss on moves no
// protocol decision — after a thousand lossy sends the peer's next ticks
// are those of its twin, the same peer of a cluster built from the same
// seed that sent nothing.
func TestFaultDrawsLeaveTheProtocolStream(t *testing.T) {
	cfg := Config{N: 8, Seed: 7, BufferMaxAge: 1 << 20}
	c, twin := mustCluster(t, cfg), mustCluster(t, cfg)
	defer c.Stop()
	defer twin.Stop()
	c.SetShape(transport.Profile{Loss: 0.5})
	p, q := c.peerAt(0), c.peerAt(1)
	for range 1000 {
		p.send(1, []byte("x"), fairness.ClassApp)
	}
	for len(q.inbox) > 0 {
		c.net.Release(<-q.inbox)
	}
	if drops := c.Traffic().ShaperDrops; drops == 0 || drops == 1000 {
		t.Fatalf("%d of 1000 sends lost at loss 0.5: the loss draw did not run", drops)
	}
	// ticks publishes four events at peer 0 and returns what its next eight
	// ticks send: selection, partners and shuffles all draw from its stream.
	ticks := func(c *Cluster) string {
		p := c.peerAt(0)
		for k := range 4 {
			p.m.Publish("t", nil, []byte{byte(k)}, &p.out)
		}
		var sent strings.Builder
		for range 8 {
			p.m.Tick(&p.out)
			for _, m := range p.out.Msgs {
				fmt.Fprint(&sent, m.Kind, m.To, m.Entries)
				for _, ev := range m.Events {
					fmt.Fprint(&sent, ev.ID)
				}
			}
		}
		return sent.String()
	}
	if got, want := ticks(c), ticks(twin); got != want {
		t.Fatalf("after lossy sends the peer ticks\n%s\nand its twin\n%s\n: loss drew from the protocol stream", got, want)
	}
}
