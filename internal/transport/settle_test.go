package transport

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutinesExact polls until the goroutine count is back at (or
// below) base — zero slack, unlike the live package's settle helper,
// whose slack of four would hide one leaked clock or reader.
func waitGoroutinesExact(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked past Close: %d now vs %d before the net existed\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// goroutineBaseline samples the goroutine count once it has stopped
// moving, so a straggler still exiting from an earlier test's Close is
// not mistaken for part of this test's baseline.
func goroutineBaseline() int {
	for {
		a := runtime.NumGoroutine()
		time.Sleep(2 * time.Millisecond)
		if runtime.NumGoroutine() == a {
			return a
		}
	}
}

// TestCloseSettlesGoroutinesExactly: every goroutine a net spawns — the
// shaper's clock's, started on the first hold (the shaper starts none
// of its own), one UDP reader per socket including the retired
// pre-rebind one — is gone once Close returns.
func TestCloseSettlesGoroutinesExactly(t *testing.T) {
	t.Run("shaped", func(t *testing.T) {
		base := goroutineBaseline()
		h := newShapeHarness(t, 2, Profile{Seed: 3, Delay: time.Hour}) // held until Close
		for seq := 0; seq < 8; seq++ {
			if err := h.eps[0].Send(1, mark(0, seq, 16)); err != nil {
				t.Fatal(err)
			}
		}
		if got := runtime.NumGoroutine(); got != base+1 {
			t.Fatalf("%d goroutines with envelopes held, want %d (the clock's alone)", got, base+1)
		}
		// Let the clock's goroutine park on the hour-long wake: a Close
		// that forgot to end it must face a parked goroutine, not one
		// that is still awake and notices the close by luck.
		time.Sleep(5 * time.Millisecond)
		if err := h.s.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutinesExact(t, base)
	})
	t.Run("udp", func(t *testing.T) {
		base := goroutineBaseline()
		const n = 3
		nw, err := NewUDPNet(n)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Transport, n)
		for i := range eps {
			if eps[i], err = nw.Attach(i, func([]byte) {}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nw.Rebind(1); err != nil { // the old socket's reader lingers until Close
			t.Fatal(err)
		}
		if err := eps[0].Send(1, []byte("settle")); err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine(); got != base+n+1 {
			t.Fatalf("%d goroutines on a running net, want %d (one reader per socket, retired included)", got, base+n+1)
		}
		nw.Close()
		waitGoroutinesExact(t, base)
	})
}
