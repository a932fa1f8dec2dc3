package eventsim

import (
	"testing"
	"time"
)

// sink records typed message deliveries for the ScheduleMsg tests.
type sink struct {
	got []Msg
}

func (k *sink) HandleSimMsg(m Msg) { k.got = append(k.got, m) }

func TestScheduleMsgDelivers(t *testing.T) {
	s := New(1)
	k := &sink{}
	payload := "hello"
	s.ScheduleMsg(5*time.Millisecond, k, Msg{From: 1, To: 2, Size: 64, Payload: payload})
	s.Run()
	if len(k.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(k.got))
	}
	m := k.got[0]
	if m.From != 1 || m.To != 2 || m.Size != 64 || m.Payload.(string) != "hello" {
		t.Fatalf("message corrupted: %+v", m)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", s.Now())
	}
}

func TestScheduleMsgNegativeDelayCoerces(t *testing.T) {
	s := New(1)
	k := &sink{}
	s.ScheduleMsg(-time.Second, k, Msg{})
	s.Run()
	if len(k.got) != 1 || s.Now() != 0 {
		t.Fatalf("negative delay mishandled: %d msgs at %v", len(k.got), s.Now())
	}
}

// Closure events and message events share one queue and one seq counter,
// so same-instant FIFO ordering holds across both kinds.
func TestMsgAndClosureInterleaveFIFO(t *testing.T) {
	s := New(1)
	var order []int
	k := &sink{}
	s.At(time.Millisecond, func() { order = append(order, 0) })
	s.ScheduleMsg(time.Millisecond, &recorder{func(Msg) { order = append(order, 1) }}, Msg{})
	s.At(time.Millisecond, func() { order = append(order, 2) })
	s.ScheduleMsg(time.Millisecond, k, Msg{From: 3})
	s.At(time.Millisecond, func() { order = append(order, 4) })
	s.Run()
	if len(k.got) != 1 || k.got[0].From != 3 {
		t.Fatalf("sink missed its message: %+v", k.got)
	}
	want := []int{0, 1, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("interleaved FIFO broken: %v", order)
		}
	}
}

type recorder struct{ fn func(Msg) }

func (r *recorder) HandleSimMsg(m Msg) { r.fn(m) }

type handlerFunc func(Msg)

func (f handlerFunc) HandleSimMsg(m Msg) { f(m) }

// A message names its handler by index into the kernel's table, found
// with ==: a handler that cannot be compared is refused when it is first
// scheduled, not by a runtime panic the second time.
func TestNonComparableHandlerRefused(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a func-typed handler was accepted")
		}
	}()
	New(1).ScheduleMsg(0, handlerFunc(func(Msg) {}), Msg{})
}

// Arena slots are recycled: a long run of schedule/fire cycles must not
// grow the arena past the peak number of outstanding events.
func TestArenaReuse(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 10000; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
	if s.arena.Len() > 4 || len(s.arena.blocks) != 1 {
		t.Fatalf("arena grew to %d slots in %d blocks for 1 outstanding event", s.arena.Len(), len(s.arena.blocks))
	}
}

// A Timer handle must go stale once its slot is recycled: stopping it
// later must not kill the unrelated event now occupying the slot.
func TestStaleTimerHandleIsInert(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.After(time.Millisecond, func() {})
	s.Run() // fires; slot returns to the free list
	// The next event reuses the slot.
	s.After(time.Millisecond, func() { fired++ })
	if tm.Stop() {
		t.Fatal("stale handle reported a successful stop")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("stale Stop killed a live event: fired=%d", fired)
	}
}

func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer stopped something")
	}
}

// Pending counts live events only: stopped timers disappear from the
// count immediately, not when their queue slot happens to drain.
func TestPendingExcludesStopped(t *testing.T) {
	s := New(1)
	fn := func() {}
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, fn)
	}
	for i := 0; i < 5; i++ {
		timers[i].Stop()
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("Pending = %d after stopping 5 of 10, want 5", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
}

// Stopping more than half the queue triggers eager compaction, physically
// shrinking the heap instead of leaving dead entries to surface lazily.
func TestStopCompactsPastThreshold(t *testing.T) {
	s := New(1)
	fn := func() {}
	const n = 4 * compactMin
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, fn)
	}
	// Stop ~3/4 of the queue; compaction must have fired along the way.
	for i := 0; i < 3*n/4; i++ {
		timers[i].Stop()
	}
	if live := n - 3*n/4; len(s.heap) >= n || s.Pending() != live {
		t.Fatalf("heap len %d (stopped debt %d), want compaction near %d live", len(s.heap), s.stopped, live)
	}
	// The survivors still fire, in order, exactly once.
	fired := s.Run()
	if want := uint64(n - 3*n/4); fired != want {
		t.Fatalf("fired %d, want %d", fired, want)
	}
}

// Compacted runs stay semantically identical: a churn-heavy schedule with
// interleaved stops fires the same events at the same times as the naive
// execution order predicts.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New(1)
	var fired []int
	const n = 8 * compactMin
	timers := make([]Timer, n)
	for i := range timers {
		i := i
		timers[i] = s.After(time.Duration(i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	// Stop every odd timer (half the queue → crosses the threshold).
	for i := 1; i < n; i += 2 {
		timers[i].Stop()
	}
	s.Run()
	if len(fired) != n/2 {
		t.Fatalf("fired %d, want %d", len(fired), n/2)
	}
	for j, id := range fired {
		if id != 2*j {
			t.Fatalf("fired[%d] = %d, want %d (order broken by compaction)", j, id, 2*j)
		}
	}
}

// --- allocation regression ---------------------------------------------------

// The schedule→fire cycle must be allocation-free in steady state; this is
// the property the whole simulation hot path builds on.
func TestAfterStepZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm the arena, heap and free list.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	t.Logf("allocs: a closure event's After → Step costs %.0f, pin 0", avg)
	if avg != 0 {
		t.Fatalf("After+Step allocates %.2f times per op, want 0", avg)
	}
}

func TestScheduleMsgStepZeroAlloc(t *testing.T) {
	s := New(1)
	k := &sink{got: make([]Msg, 0, 4096)}
	payload := &struct{ x int }{}
	for i := 0; i < 64; i++ {
		s.ScheduleMsg(time.Microsecond, k, Msg{From: 1, To: 2, Size: 8, Payload: payload})
	}
	s.Run()
	k.got = k.got[:0]
	avg := testing.AllocsPerRun(1000, func() {
		s.ScheduleMsg(time.Microsecond, k, Msg{From: 1, To: 2, Size: 8, Payload: payload})
		s.Step()
		k.got = k.got[:0]
	})
	t.Logf("allocs: a message event's ScheduleMsg → Step costs %.0f, pin 0", avg)
	if avg != 0 {
		t.Fatalf("ScheduleMsg+Step allocates %.2f times per op, want 0", avg)
	}
}

func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	s := New(1)
	tk := s.Every(time.Millisecond, 0, func() {})
	s.RunUntil(10 * time.Millisecond) // warm up
	avg := testing.AllocsPerRun(1000, func() {
		s.Step() // each step is one tick rescheduling itself
	})
	tk.Stop()
	t.Logf("allocs: a ticker's tick costs %.0f, pin 0", avg)
	if avg != 0 {
		t.Fatalf("ticker tick allocates %.2f times per op, want 0", avg)
	}
}

func BenchmarkScheduleMsgAndStep(b *testing.B) {
	s := New(1)
	k := &sink{}
	payload := &struct{ x int }{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleMsg(time.Microsecond, k, Msg{From: 1, To: 2, Size: 8, Payload: payload})
		s.Step()
		k.got = k.got[:0]
	}
}

func BenchmarkStopHeavyChurn(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Duration(i%97)*time.Microsecond, fn)
		if i%2 == 0 {
			tm.Stop()
		}
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}
