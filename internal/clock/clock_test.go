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

// silentSource never wakes: on a clock built on it only Fire and Close
// run entries, so a test decides who runs them.
type silentSource chan struct{}

func newSilentSource() source              { return make(silentSource) }
func (s silentSource) arm(d time.Duration) {}
func (s silentSource) wait() bool          { <-s; return false }
func (s silentSource) close()              { close(s) }

// ring is the runtime's entry for a waiter: a token on the channel it
// is given, which holds one.
func ring(arg any) {
	select {
	case arg.(chan struct{}) <- struct{}{}:
	default:
	}
}

// TestAlarmsNeverFireEarly runs the live runtime's tick pattern — 48
// waiters, each re-scheduling its alarm (one entry) on its own 10 ms
// grid at a random phase, as live.peer.loop does — and checks that no
// entry runs before its due time. It logs how late the ticks land
// (make timers prints the line).
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
					tick := make(chan struct{}, 1)
					c.At(next, ring, tick)
					for range rounds {
						<-tick
						late[i] = append(late[i], time.Since(next))
						next = next.Add(period)
						c.At(next, ring, tick)
					}
				}()
			}
			wg.Wait()
			all := slices.Concat(late...)
			slices.Sort(all)
			if all[0] < 0 {
				t.Fatalf("an entry ran %v before its due time", -all[0])
			}
			t.Logf("tick lateness (%s source): p50 %v  p90 %v  p99 %v  (n = %d, quantum %v)",
				src.name, q(all, 0.5), q(all, 0.9), q(all, 0.99), len(all), Quantum)
		})
	}
}

func q(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))].Round(time.Microsecond)
}

// TestDueAlarmsShareOneWake: alarms — entries — whose due times fall in
// one Quantum of the grid run together, on one wake of the source.
func TestDueAlarmsShareOneWake(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			var wakes atomic.Int64
			c := newClock(func() source { return countingSource{src.mk(), &wakes} })
			defer c.Close()
			// The grid point 5–6 ms out, and ten due times in the
			// Quantum it closes.
			off := time.Since(c.epoch) + 5*time.Millisecond
			g := c.epoch.Add((off/Quantum + 1) * Quantum)
			chs := make([]chan struct{}, 10)
			for i := range chs {
				chs[i] = make(chan struct{}, 1)
				c.At(g.Add(-time.Duration(i)*Quantum/10), ring, chs[i])
			}
			for i, ch := range chs {
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("entry %d never ran", i)
				}
			}
			if got := wakes.Load(); got != 1 {
				t.Fatalf("%d wakes ran ten entries due in one quantum, want 1", got)
			}
		})
	}
}

// TestEqualDueRunsInScheduleOrder: entries run in (due, seq) order —
// equal due times in the order they were scheduled, which is what keeps
// a jitter-free shaped link FIFO — and a warm queue takes a push and a
// pop without allocating (the reason it is not container/heap).
func TestEqualDueRunsInScheduleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newClock(newSilentSource)
	base := time.Now().Add(-time.Second)
	type sched struct {
		due time.Time
		seq int
	}
	var want, got []sched
	for seq := range 500 {
		s := sched{due: base.Add(time.Duration(rng.Intn(40)) * time.Millisecond), seq: seq}
		want = append(want, s)
		c.At(s.due, func(arg any) { got = append(got, arg.(sched)) }, s)
	}
	c.Fire()
	slices.SortStableFunc(want, func(a, b sched) int { return a.due.Compare(b.due) })
	if !slices.Equal(got, want) {
		t.Fatalf("ran %d entries out of (due, schedule) order", len(got))
	}
	c.Close()

	var qu queue
	for seq := uint64(1); seq <= 64; seq++ {
		qu.push(entry{due: base, seq: seq})
	}
	if avg := testing.AllocsPerRun(100, func() {
		e := qu.pop()
		e.due = e.due.Add(time.Millisecond)
		qu.push(e)
	}); avg != 0 {
		t.Fatalf("pop+push on a warm queue allocates %.2f times, want 0", avg)
	}
}

// TestFireRunsWhatIsDue: any goroutine's Fire runs every entry already
// due before it returns, and none that is not, with the clock's own
// goroutine never waking; Close runs the rest at once, in order, and an
// entry scheduled after Close never runs.
func TestFireRunsWhatIsDue(t *testing.T) {
	c := newClock(newSilentSource)
	var ran []int
	record := func(arg any) { ran = append(ran, arg.(int)) }
	now := time.Now()
	for i := range 4 {
		c.At(now.Add(time.Hour+time.Duration(i)), record, 10+i)
		c.At(now.Add(-time.Duration(4-i)*time.Millisecond), record, i)
	}
	c.Fire()
	if !slices.Equal(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("Fire ran %v, want the four due entries [0 1 2 3]", ran)
	}
	c.Close()
	if !slices.Equal(ran[4:], []int{10, 11, 12, 13}) {
		t.Fatalf("Close ran %v, want the four left [10 11 12 13]", ran[4:])
	}
	if c.At(now, record, 99) || len(ran) != 8 {
		t.Fatal("an entry scheduled on a closed clock was accepted")
	}
}

// TestFireNeverRunsTwoAtOnce: four goroutines calling Fire, beside the
// clock's own, while entries fall due one after another, never run two
// entries at the same time, run each entry once, and run them all in
// schedule order.
func TestFireNeverRunsTwoAtOnce(t *testing.T) {
	const n = 500
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			c := newClock(src.mk)
			defer c.Close()
			var active, overlaps atomic.Int32
			var order []int // appended by one entry at a time, or the race detector says otherwise
			done := make(chan struct{})
			var wg sync.WaitGroup
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
							c.Fire()
							runtime.Gosched()
						}
					}
				}()
			}
			run := func(arg any) {
				if active.Add(1) > 1 {
					overlaps.Add(1)
				}
				order = append(order, arg.(int))
				runtime.Gosched()
				active.Add(-1)
				if len(order) == n {
					close(done)
				}
			}
			for i := range n {
				c.At(time.Now(), run, i)
				if i%50 == 0 {
					time.Sleep(100 * time.Microsecond) // let the firers catch up, so entries fall due while they run
				}
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the entries never all ran")
			}
			wg.Wait()
			if o := overlaps.Load(); o != 0 {
				t.Fatalf("%d entries started while another was running", o)
			}
			if len(order) != n {
				t.Fatalf("%d runs of %d entries", len(order), n)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("entry %d ran in place %d", v, i)
				}
			}
		})
	}
}

// TestSteadyRearmZeroAlloc: scheduling an entry — to an earlier due
// time, which re-arms the source too — and a run round trip allocate
// nothing.
func TestSteadyRearmZeroAlloc(t *testing.T) {
	c := New()
	defer c.Close()
	ch := make(chan struct{}, 1)
	base := time.Now().Add(time.Hour)
	c.queue = make(queue, 0, 2048) // room for every entry the runs below leave queued
	k := 0
	if avg := testing.AllocsPerRun(1000, func() {
		k++
		c.At(base.Add(-time.Duration(k)*Quantum), ring, ch)
	}); avg != 0 {
		t.Fatalf("allocs: %.2f per re-arm, want 0", avg)
	}
	tick := make(chan struct{}, 1)
	if avg := testing.AllocsPerRun(50, func() {
		c.At(time.Now().Add(100*time.Microsecond), ring, tick)
		<-tick
	}); avg != 0 {
		t.Fatalf("allocs: %.2f per run round trip, want 0", avg)
	}
	t.Log("allocs: 0 per entry re-arm and per run round trip")
}

// goroutineBaseline waits until the goroutine count holds still: an
// earlier test's goroutines may still be exiting when this one starts.
func goroutineBaseline() int {
	for {
		a := runtime.NumGoroutine()
		time.Sleep(2 * time.Millisecond)
		if runtime.NumGoroutine() == a {
			return a
		}
	}
}

// TestCloseEndsTheGoroutine: the clock starts its goroutine on the
// first entry scheduled, and Close returns once it has exited.
func TestCloseEndsTheGoroutine(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			base := goroutineBaseline()
			c := newClock(src.mk)
			if got := runtime.NumGoroutine(); got != base {
				t.Fatalf("%d goroutines before any entry, want %d", got, base)
			}
			c.At(time.Now().Add(time.Hour), ring, make(chan struct{}, 1))
			if got := runtime.NumGoroutine(); got != base+1 {
				t.Fatalf("%d goroutines with an entry scheduled, want %d", got, base+1)
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
