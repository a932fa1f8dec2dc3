package transport

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector is a threadsafe handler recording delivered buffers.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handler(buf []byte) {
	c.mu.Lock()
	c.got = append(c.got, buf)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// wait blocks until n buffers arrived or the timeout fires, and
// returns a snapshot.
func (c *collector) wait(t *testing.T, n int, timeout time.Duration) [][]byte {
	t.Helper()
	done := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer done.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for len(c.got) < n && time.Now().Before(deadline) {
		c.cond.Wait()
	}
	return append([][]byte(nil), c.got...)
}

// netUnderTest exercises a Net implementation through the interface.
func netUnderTest(t *testing.T, build Factory, wantAddr string) {
	t.Helper()
	nw, err := build(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	cols := make([]*collector, 3)
	eps := make([]Transport, 3)
	for i := range cols {
		cols[i] = newCollector()
		ep, err := nw.Attach(i, cols[i].handler)
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		eps[i] = ep
	}
	if _, err := nw.Attach(1, cols[1].handler); err == nil {
		t.Fatal("double attach accepted")
	}
	if _, err := nw.Attach(9, cols[0].handler); err == nil {
		t.Fatal("out-of-range attach accepted")
	}
	if !strings.Contains(eps[1].LocalAddr(), wantAddr) {
		t.Fatalf("LocalAddr %q does not look like a %q address", eps[1].LocalAddr(), wantAddr)
	}

	// 0 -> 1, 0 -> 2, 2 -> 1: payloads arrive intact at the right peers.
	if err := eps[0].Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(2, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if err := eps[2].Send(1, []byte("ccc")); err != nil {
		t.Fatal(err)
	}
	if got := cols[1].wait(t, 2, 5*time.Second); len(got) != 2 {
		t.Fatalf("peer 1 got %d messages, want 2", len(got))
	} else {
		sizes := map[int]bool{len(got[0]): true, len(got[1]): true}
		if !sizes[1] || !sizes[3] {
			t.Fatalf("peer 1 payloads mangled: %q", got)
		}
	}
	if got := cols[2].wait(t, 1, 5*time.Second); len(got) != 1 || string(got[0]) != "bb" {
		t.Fatalf("peer 2 got %q", got)
	}
	if err := eps[0].Send(99, []byte("x")); err == nil {
		t.Fatal("send to unknown peer accepted")
	}
}

func TestChanNet(t *testing.T) { netUnderTest(t, Chan(), "chan://1") }
func TestUDPNet(t *testing.T)  { netUnderTest(t, UDP(), "127.0.0.1:") }

// TestSendAfterNetCloseFails holds every substrate to the Net contract:
// Close tears down every endpoint, so a later Send returns an error and
// no handler runs — with and without the shaper in front, on its
// pass-through and its delayed path alike.
func TestSendAfterNetCloseFails(t *testing.T) {
	shaped := func(p Profile) Factory {
		return func(n int) (Net, error) {
			inner, err := NewChanNet(n)
			if err != nil {
				return nil, err
			}
			return Shape(inner, p), nil
		}
	}
	for _, tc := range []struct {
		name  string
		build Factory
	}{
		{"chan", Chan()},
		{"udp", UDP()},
		{"shaped-inert", shaped(Profile{})},
		{"shaped-delayed", shaped(Profile{Delay: 5 * time.Millisecond})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := tc.build(2)
			if err != nil {
				t.Fatal(err)
			}
			var handled atomic.Int64
			eps := make([]Transport, 2)
			for i := range eps {
				if eps[i], err = nw.Attach(i, func(buf []byte) { handled.Add(1); nw.Release(buf) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(1, []byte("after close")); err == nil {
				t.Error("Send after Net.Close returned nil")
			}
			if n := handled.Load(); n != 0 {
				t.Errorf("a handler ran %d times after Net.Close", n)
			}
		})
	}
}

// TestUDPOversizeRefused: datagram-size enforcement happens at Send,
// with a typed error the live runtime counts as a transport drop.
func TestUDPOversizeRefused(t *testing.T) {
	nw, err := NewUDPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ep, err := nw.Attach(0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, make([]byte, MaxDatagram+1)); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversized send: %v, want ErrOversize", err)
	}
	if err := ep.Send(1, make([]byte, 1024)); err != nil {
		t.Fatalf("normal send after refusal: %v", err)
	}
}

// TestUDPCloseQuiesces: datagrams handed to the kernel before Close are
// delivered to the handler, not torn down with the sockets — the
// property post-run conservation checks rely on.
func TestUDPCloseQuiesces(t *testing.T) {
	nw, err := NewUDPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	ep, err := nw.Attach(0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach(1, col.handler); err != nil {
		t.Fatal(err)
	}
	const burst = 200
	for i := 0; i < burst; i++ {
		if err := ep.Send(1, []byte("quiesce-me")); err != nil {
			t.Fatal(err)
		}
	}
	nw.Close() // must wait for the burst to drain
	col.mu.Lock()
	n := len(col.got)
	col.mu.Unlock()
	if n != burst {
		t.Fatalf("close lost datagrams: %d of %d delivered", n, burst)
	}
	nw.Close() // idempotent
}

// TestNetsGrowByOne: Attach with id == population extends a running net
// by one endpoint (how a peer joins a live cluster); sparse ids stay
// rejected, and traffic flows both ways across the new link while old
// endpoints keep working.
func TestNetsGrowByOne(t *testing.T) {
	for name, build := range map[string]Factory{"chan": Chan(), "udp": UDP()} {
		t.Run(name, func(t *testing.T) {
			nw, err := build(2)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			cols := []*collector{newCollector(), newCollector()}
			eps := make([]Transport, 2)
			for i := range eps {
				if eps[i], err = nw.Attach(i, cols[i].handler); err != nil {
					t.Fatalf("attach %d: %v", i, err)
				}
			}
			if _, err := nw.Attach(5, cols[0].handler); err == nil {
				t.Fatal("sparse attach accepted")
			}
			if err := eps[0].Send(2, []byte("early")); err == nil {
				t.Fatal("send to not-yet-joined peer accepted")
			}
			joined := newCollector()
			ep2, err := nw.Attach(2, joined.handler)
			if err != nil {
				t.Fatalf("growing attach: %v", err)
			}
			if _, err := nw.Attach(2, joined.handler); err == nil {
				t.Fatal("double attach of joined peer accepted")
			}
			if err := eps[0].Send(2, []byte("hello-joiner")); err != nil {
				t.Fatal(err)
			}
			if err := ep2.Send(1, []byte("hello-back")); err != nil {
				t.Fatal(err)
			}
			if got := joined.wait(t, 1, 5*time.Second); len(got) != 1 || string(got[0]) != "hello-joiner" {
				t.Fatalf("joiner got %q", got)
			}
			if got := cols[1].wait(t, 1, 5*time.Second); len(got) != 1 || string(got[0]) != "hello-back" {
				t.Fatalf("old peer got %q", got)
			}
		})
	}
}

// TestNetGrowthRacesSends: endpoints hammer an existing link while new
// peers attach — the copy-on-write tables must keep every send either
// delivered or cleanly errored (run under -race in CI).
func TestNetGrowthRacesSends(t *testing.T) {
	for name, build := range map[string]Factory{"chan": Chan(), "udp": UDP()} {
		t.Run(name, func(t *testing.T) {
			nw, err := build(2)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			sink := newCollector()
			ep0, err := nw.Attach(0, func([]byte) {})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nw.Attach(1, sink.handler); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = ep0.Send(1, []byte("steady"))
					}
				}
			}()
			for id := 2; id < 10; id++ {
				ep, err := nw.Attach(id, func([]byte) {})
				if err != nil {
					t.Fatalf("attach %d during traffic: %v", id, err)
				}
				if err := ep.Send(1, []byte("from-joiner")); err != nil {
					t.Fatalf("joiner %d send: %v", id, err)
				}
			}
			close(stop)
			wg.Wait()
			// Count the joiner payloads specifically: the steady flood
			// lands in the same sink, so a raw message count would pass
			// even if every joiner send were silently lost.
			fromJoiners := func() int {
				sink.mu.Lock()
				defer sink.mu.Unlock()
				n := 0
				for _, buf := range sink.got {
					if string(buf) == "from-joiner" {
						n++
					}
				}
				return n
			}
			deadline := time.Now().Add(5 * time.Second)
			for fromJoiners() < 8 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := fromJoiners(); got != 8 {
				t.Fatalf("sink saw %d joiner messages, want 8", got)
			}
		})
	}
}

// TestChanSendToUnattachedPeerErrors: an unattached destination is a
// hard send error, not an uncounted silent loss.
func TestChanSendToUnattachedPeerErrors(t *testing.T) {
	nw, err := NewChanNet(2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Attach(0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, []byte("x")); err == nil {
		t.Fatal("send to unattached peer accepted")
	}
}

// TestFactoriesValidatePopulation: n < 1 is a construction error on
// both substrates.
func TestFactoriesValidatePopulation(t *testing.T) {
	for name, f := range map[string]Factory{"chan": Chan(), "udp": UDP()} {
		if _, err := f(0); err == nil {
			t.Fatalf("%s: accepted a 0-peer net", name)
		}
	}
}
