package clock

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sources runs a test over the platform's Clock and over the portable
// runtime-timer fallback, which is the platform's on some systems.
var sources = []struct {
	name string
	mk   func() source
}{
	{"platform", newSource},
	{"timer", newTimerSource},
}

// countingSource counts the wakes its inner source delivers.
type countingSource struct {
	source
	wakes *atomic.Int64
}

func (s countingSource) wait() bool {
	ok := s.source.wait()
	if ok {
		s.wakes.Add(1)
	}
	return ok
}

// TestAlarmsNeverFireEarly runs the live runtime's tick pattern — 48
// alarms, each re-armed on its own 10 ms grid at a random phase, as
// live.peer.loop does — and checks that no alarm fires before its
// deadline. It logs how late the ticks land (make timers prints the
// line).
func TestAlarmsNeverFireEarly(t *testing.T) {
	const n, rounds, period = 48, 25, 10 * time.Millisecond
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			c := newClock(src.mk)
			defer c.Close()
			rng := rand.New(rand.NewSource(1))
			late := make([][]time.Duration, n)
			var wg sync.WaitGroup
			start := time.Now()
			for i := range late {
				next := start.Add(period + time.Duration(rng.Int63n(int64(period))))
				wg.Add(1)
				go func() {
					defer wg.Done()
					a := c.NewAlarm()
					defer a.Stop()
					a.Set(next)
					for range rounds {
						<-a.C
						late[i] = append(late[i], time.Since(next))
						next = next.Add(period)
						a.Set(next)
					}
				}()
			}
			wg.Wait()
			all := slices.Concat(late...)
			slices.Sort(all)
			if all[0] < 0 {
				t.Fatalf("an alarm fired %v before its deadline", -all[0])
			}
			t.Logf("tick lateness (%s source): p50 %v  p90 %v  p99 %v  (n = %d, quantum %v)",
				src.name, q(all, 0.5), q(all, 0.9), q(all, 0.99), len(all), Quantum)
		})
	}
}

func q(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))].Round(time.Microsecond)
}

// TestDueAlarmsShareOneWake: alarms whose deadlines fall in one Quantum
// of the grid fire together, on one wake of the source.
func TestDueAlarmsShareOneWake(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			var wakes atomic.Int64
			c := newClock(func() source { return countingSource{src.mk(), &wakes} })
			defer c.Close()
			// The grid point 5–6 ms out, and ten deadlines in the
			// Quantum it closes.
			off := time.Since(c.epoch) + 5*time.Millisecond
			g := c.epoch.Add((off/Quantum + 1) * Quantum)
			as := make([]*Alarm, 10)
			for i := range as {
				as[i] = c.NewAlarm()
				as[i].Set(g.Add(-time.Duration(i) * Quantum / 10))
			}
			for i, a := range as {
				select {
				case <-a.C:
				case <-time.After(5 * time.Second):
					t.Fatalf("alarm %d never fired", i)
				}
			}
			if got := wakes.Load(); got != 1 {
				t.Fatalf("%d wakes fired ten alarms due in one quantum, want 1", got)
			}
		})
	}
}

// TestSetMovesAndStopDisarms: Set replaces an armed deadline, earlier
// or later, and discards a token not yet taken; Stop disarms.
func TestSetMovesAndStopDisarms(t *testing.T) {
	quiet := func(t *testing.T, a *Alarm, d time.Duration, what string) {
		t.Helper()
		select {
		case <-a.C:
			t.Fatalf("%s: the alarm fired", what)
		case <-time.After(d):
		}
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			c := newClock(src.mk)
			defer c.Close()
			a := c.NewAlarm()

			a.Set(time.Now().Add(time.Hour))
			due := time.Now().Add(2 * time.Millisecond)
			a.Set(due) // earlier
			select {
			case <-a.C:
				if early := due.Sub(time.Now()); early > 0 {
					t.Fatalf("moved alarm fired %v early", early)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("an alarm moved earlier never fired")
			}

			a.Set(time.Now().Add(5 * time.Millisecond))
			a.Set(time.Now().Add(time.Hour)) // later
			quiet(t, a, 30*time.Millisecond, "moved an hour out")

			a.Set(time.Now().Add(5 * time.Millisecond))
			a.Stop()
			quiet(t, a, 30*time.Millisecond, "stopped")

			a.Set(time.Now().Add(-time.Millisecond)) // past: a token at once
			a.Set(time.Now().Add(time.Hour))         // which Set discards
			quiet(t, a, 10*time.Millisecond, "token of a replaced deadline")

			c.Close()
			a.Set(time.Now().Add(time.Millisecond))
			quiet(t, a, 20*time.Millisecond, "set after Close")
		})
	}
}

// TestSteadyRearmZeroAlloc: re-arming an alarm — to an earlier deadline,
// which re-arms the source too — and a fire round trip allocate
// nothing.
func TestSteadyRearmZeroAlloc(t *testing.T) {
	c := New()
	defer c.Close()
	a := c.NewAlarm()
	base := time.Now().Add(time.Hour)
	k := 0
	if avg := testing.AllocsPerRun(1000, func() {
		k++
		a.Set(base.Add(-time.Duration(k) * Quantum))
	}); avg != 0 {
		t.Fatalf("allocs: %.2f per re-arm, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		a.Set(time.Now().Add(100 * time.Microsecond))
		<-a.C
	}); avg != 0 {
		t.Fatalf("allocs: %.2f per fire round trip, want 0", avg)
	}
	t.Log("allocs: 0 per alarm re-arm and per fire round trip")
}

// TestCloseEndsTheGoroutine: the clock starts its goroutine on the
// first alarm armed, and Close returns once it has exited.
func TestCloseEndsTheGoroutine(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c := newClock(src.mk)
			a := c.NewAlarm()
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%d goroutines before any alarm, want %d", got, base)
			}
			a.Set(time.Now().Add(time.Hour))
			if got := runtime.NumGoroutine(); got != base+1 {
				t.Fatalf("%d goroutines with an alarm armed, want %d", got, base+1)
			}
			c.Close()
			// Close waited for the goroutine's last act; its exit is
			// counted a moment later.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%d goroutines after Close, want %d", got, base)
			}
		})
	}
}
