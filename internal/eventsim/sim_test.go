package eventsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestFiresInTimeOrder(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 0} {
		d := d
		s.After(d*time.Millisecond, func() {
			got = append(got, s.Now())
		})
	}
	s.Run()
	want := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestPastSchedulingCoercesToNow(t *testing.T) {
	s := New(1)
	var at time.Duration = -1
	s.After(10*time.Millisecond, func() {
		s.At(0, func() { at = s.Now() }) // in the past relative to 10ms
	})
	s.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want %v", at, 10*time.Millisecond)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.After(5*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.After(15*time.Millisecond, func() { fired = append(fired, s.Now()) })

	n := s.RunUntil(10 * time.Millisecond)
	if n != 1 {
		t.Fatalf("RunUntil fired %d events, want 1", n)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v after RunUntil, want 10ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 || fired[1] != 15*time.Millisecond {
		t.Fatalf("remaining event mishandled: %v", fired)
	}
}

func TestRunUntilExactDeadlineInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.After(10*time.Millisecond, func() { fired = true })
	s.RunUntil(10 * time.Millisecond)
	if !fired {
		t.Fatal("event at exactly the deadline did not fire")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		// A self-rescheduling process that consumes randomness.
		var step func()
		step = func() {
			out = append(out, int64(s.Now()), s.Rand().Int63n(1000))
			if len(out) < 40 {
				s.After(time.Duration(1+s.Rand().Intn(5))*time.Millisecond, step)
			}
		}
		s.After(0, step)
		s.Run()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	var at []time.Duration
	tk := s.Every(10*time.Millisecond, 0, func() {
		at = append(at, s.Now())
	})
	s.RunUntil(55 * time.Millisecond)
	tk.Stop()
	s.Run()
	want := []time.Duration{10, 20, 30, 40, 50}
	if len(at) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(at), at, len(want))
	}
	for i, w := range want {
		if at[i] != w*time.Millisecond {
			t.Fatalf("tick %d at %v, want %v", i, at[i], w*time.Millisecond)
		}
	}
}

func TestEveryJitterStaysInBounds(t *testing.T) {
	s := New(7)
	var gaps []time.Duration
	last := time.Duration(0)
	s.Every(10*time.Millisecond, 5*time.Millisecond, func() {
		gaps = append(gaps, s.Now()-last)
		last = s.Now()
	})
	s.RunUntil(2 * time.Second)
	if len(gaps) < 50 {
		t.Fatalf("too few ticks: %d", len(gaps))
	}
	for i, g := range gaps {
		if g < 10*time.Millisecond || g >= 15*time.Millisecond+10*time.Millisecond {
			// Successive gaps can range in [interval, interval+jitter) relative
			// to the previous *fire*; allow the analytic bound.
			t.Fatalf("gap %d = %v outside [10ms,15ms) tolerance", i, g)
		}
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(time.Millisecond, 0, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after in-callback stop, want 3", count)
	}
}

// A stopped ticker leaves its queued tick behind, and that tick fires as
// a no-op: running it calls no callback and draws no random number, so a
// kernel that runs it and a twin that does not draw the same next value.
func TestStoppedTickerQueuedTickIsANoOp(t *testing.T) {
	var counts [2]int
	var draws [2]int64
	for i, run := range []bool{true, false} {
		s := New(9)
		tk := s.Every(10*time.Millisecond, 5*time.Millisecond, func() { counts[i]++ })
		s.RunUntil(100 * time.Millisecond)
		tk.Stop()
		if s.Pending() != 1 {
			t.Fatalf("Pending = %d after Stop, want the one queued tick", s.Pending())
		}
		before := counts[i]
		if run {
			s.Run()
			if s.Pending() != 0 {
				t.Fatalf("Pending = %d after Run, want 0", s.Pending())
			}
		}
		if counts[i] != before {
			t.Fatalf("the queued tick called the callback after Stop (%d → %d)", before, counts[i])
		}
		draws[i] = s.Rand().Int63()
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		t.Fatalf("callback counts %v, want equal and nonzero", counts)
	}
	if draws[0] != draws[1] {
		t.Fatalf("the queued tick drew a random number: %d after Run, %d without", draws[0], draws[1])
	}
}

func TestEveryNonPositiveInterval(t *testing.T) {
	s := New(1)
	tk := s.Every(0, 0, func() { t.Fatal("must not fire") })
	s.Run()
	tk.Stop() // must not panic
}

// Property: regardless of insertion order, events fire in non-decreasing
// time order and every event fires exactly once.
func TestQuickOrderingInvariant(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		s := New(seed)
		if len(raw) > 200 {
			raw = raw[:200]
		}
		fired := make([]time.Duration, 0, len(raw))
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			s.After(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j%97)*time.Microsecond, func() {})
		}
		s.Run()
	}
}

func TestScheduleMsgAt(t *testing.T) {
	s := New(1)
	h := &recordingHandler{}
	// Out-of-order absolute scheduling must fire in timestamp order,
	// with injection order breaking ties.
	s.ScheduleMsgAt(30*time.Millisecond, h, Msg{From: 3})
	s.ScheduleMsgAt(10*time.Millisecond, h, Msg{From: 1})
	s.ScheduleMsgAt(10*time.Millisecond, h, Msg{From: 2})
	s.RunUntil(20 * time.Millisecond)
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("Now = %v, want 20ms", s.Now())
	}
	// A past timestamp coerces to Now and fires before the 30ms event.
	s.ScheduleMsgAt(5*time.Millisecond, h, Msg{From: 4})
	s.Run()
	want := []int32{1, 2, 4, 3}
	if len(h.froms) != len(want) {
		t.Fatalf("fired %d events, want %d", len(h.froms), len(want))
	}
	for i, f := range want {
		if h.froms[i] != f {
			t.Fatalf("firing order %v, want %v", h.froms, want)
		}
	}
}

type recordingHandler struct{ froms []int32 }

func (r *recordingHandler) HandleSimMsg(m Msg) { r.froms = append(r.froms, m.From) }
