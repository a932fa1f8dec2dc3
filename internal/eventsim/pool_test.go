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
