// Package eventsim implements a deterministic discrete-event simulation
// kernel: a virtual clock, a time-ordered event queue, and a seeded random
// number generator. All higher-level simulation packages (simnet, the
// protocol experiments) are driven by this kernel, which makes every
// experiment reproducible from a single seed.
//
// Virtual time is expressed as a time.Duration measured from the start of
// the simulation. Two events scheduled for the same instant fire in the
// order they were scheduled (FIFO tie-breaking), which keeps runs
// deterministic.
//
// The kernel schedules and fires; it never cancels. Scheduling returns no
// handle, every queued event fires exactly once, and the queue holds no
// dead entries to discard or compact, so its whole contract is (time, seq)
// FIFO. A stopped Ticker leaves its one already-queued tick behind: that
// tick fires as a no-op (no callback, no random draw), and Pending counts
// it until it has.
//
// The kernel is built for a zero-allocation steady state: event records
// live in a pooled arena of fixed-size blocks (Blocks: growing it copies
// nothing) indexed by a manual binary heap, freed slots are
// recycled through a free list, and the typed-message API (ScheduleMsg)
// lets the network layer schedule deliveries without allocating a closure.
// A record is 56 bytes — a closure rides in its message's payload, and a
// message's handler is a 16-bit index into the kernel's handler table —
// because a large run keeps hundreds of thousands of them in flight.
// Once the arena and heap have warmed up to the simulation's peak
// outstanding-event count, scheduling and firing events performs no heap
// allocation at all.
package eventsim

import (
	"math"
	"math/rand"
	"reflect"
	"time"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
//
// Sim is not safe for concurrent use: the simulation model is
// single-threaded by design (determinism), and all callbacks run on the
// caller's goroutine inside Run/Step.
type Sim struct {
	now   time.Duration
	seq   uint64
	rng   *rand.Rand
	steps uint64

	arena    Blocks[event] // pooled event records, named by index
	free     []int32       // recycled arena slots
	heap     []int32       // binary heap of arena indices ordered by (at, seq)
	handlers []MsgHandler
}

// New returns a simulator whose random stream is derived from seed.
// The same seed always yields the same execution.
func New(seed int64) *Sim {
	return &Sim{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time (duration since simulation start).
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source. Protocol code
// must draw all randomness from this stream (or from streams seeded by it)
// to keep runs reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Steps reports how many events have fired so far.
func (s *Sim) Steps() uint64 { return s.steps }

// Pending reports how many scheduled events are waiting to fire.
func (s *Sim) Pending() int { return len(s.heap) }

// Msg is a typed message event: a payload plus routing metadata stored
// inline in the pooled event record, so scheduling a delivery allocates
// nothing (the classic alternative — a closure capturing the message —
// costs one heap allocation per message).
type Msg struct {
	From, To int32
	Size     int32
	Payload  any
}

// MsgHandler consumes typed message events at their delivery time. The
// kernel tells handlers apart with ==, so a handler's dynamic type must be
// comparable — a pointer, typically; ScheduleMsg panics on one that is not.
type MsgHandler interface {
	HandleSimMsg(m Msg)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) coerces to Now: the event fires before any later event,
// which mirrors "as soon as possible" semantics.
func (s *Sim) At(at time.Duration, fn func()) {
	s.schedule(at, 0, Msg{Payload: fn})
}

// After schedules fn to run d after the current virtual time. Negative d
// coerces to zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// ScheduleMsg schedules m for delivery to h at d after the current virtual
// time (negative d coerces to zero). The record is stored inline in the
// pooled event arena: unlike After with a capturing closure, this path
// performs no per-call allocation, which is what makes the simulated
// network's send hot path allocation-free (pinned by
// TestScheduleMsgStepZeroAlloc).
func (s *Sim) ScheduleMsg(d time.Duration, h MsgHandler, m Msg) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, s.handlerID(h), m)
}

// ScheduleMsgAt schedules m for delivery to h at absolute virtual time
// at; scheduling in the past coerces to Now, exactly like At. It is the
// injection point for the sharded kernel's barrier merge: a cross-shard
// message carries the delivery timestamp the source shard computed, and
// the destination shard enqueues it here between windows. Injection
// order assigns the FIFO tie-break sequence, so a fixed merge order
// yields a fixed firing order.
func (s *Sim) ScheduleMsgAt(at time.Duration, h MsgHandler, m Msg) {
	s.schedule(at, s.handlerID(h), m)
}

// handlerID returns h's 1-based index in the kernel's handler table,
// adding it on first use. A kernel serves one network, so the scan is a
// compare or two.
func (s *Sim) handlerID(h MsgHandler) uint16 {
	for i, known := range s.handlers {
		if known == h {
			return uint16(i + 1)
		}
	}
	if !reflect.TypeOf(h).Comparable() {
		panic("eventsim: MsgHandler of non-comparable type " + reflect.TypeOf(h).String())
	}
	if len(s.handlers) == math.MaxUint16 {
		panic("eventsim: more than 65535 message handlers on one kernel")
	}
	s.handlers = append(s.handlers, h)
	return uint16(len(s.handlers))
}

// Step fires the single next event, advancing the clock to its timestamp.
// It reports whether an event fired (false when the queue is empty).
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	idx := s.popMin()
	ev := s.arena.At(idx)
	s.now = ev.at
	s.steps++
	// Copy the payload out and recycle the slot before firing, so
	// events scheduled inside the callback can reuse it.
	h, m := ev.h, ev.msg
	ev.msg = Msg{} // drop the references for the GC
	s.free = append(s.free, idx)
	if h == 0 {
		m.Payload.(func())()
	} else {
		s.handlers[h-1].HandleSimMsg(m)
	}
	return true
}

// Run fires events until the queue is empty. It returns the number of
// events fired during this call.
func (s *Sim) Run() uint64 {
	var fired uint64
	for s.Step() {
		fired++
	}
	return fired
}

// RunUntil fires every event scheduled at or before deadline, then advances
// the clock to deadline (even if no event was scheduled exactly there).
// Events scheduled after deadline remain queued. It returns the number of
// events fired during this call.
func (s *Sim) RunUntil(deadline time.Duration) uint64 {
	var fired uint64
	for len(s.heap) > 0 && s.arena.At(s.heap[0]).at <= deadline {
		s.Step()
		fired++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return fired
}

// --- pooled event arena ------------------------------------------------------

// event is a pooled queue entry: a message for handler h, or, with h 0, a
// closure event whose func() is msg.Payload.
type event struct {
	at  time.Duration
	seq uint64
	msg Msg
	h   uint16 // 1 + index into Sim.handlers; 0 for a closure
}

// alloc returns a free arena slot, growing the arena by a block when the
// free list is dry: a growing arena copies nothing, and an event stays in
// its slot for its whole life.
func (s *Sim) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	return s.arena.Push(event{})
}

// schedule allocates, fills and enqueues one event record.
func (s *Sim) schedule(at time.Duration, h uint16, m Msg) {
	if at < s.now {
		at = s.now
	}
	idx := s.alloc()
	ev := s.arena.At(idx)
	ev.at = at
	ev.seq = s.seq
	ev.msg = m
	ev.h = h
	s.seq++
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

// --- manual index heap -------------------------------------------------------
//
// A hand-rolled binary heap over arena indices avoids both the pointer
// chasing of []*event and the interface boxing of container/heap.

func (s *Sim) less(a, b int32) bool {
	ea, eb := s.arena.At(a), s.arena.At(b)
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (s *Sim) siftUp(i int) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (s *Sim) siftDown(i int) {
	h := s.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && s.less(h[r], h[l]) {
			small = r
		}
		if !s.less(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// popMin removes and returns the root of the heap. The caller owns the
// returned arena slot.
func (s *Sim) popMin() int32 {
	idx := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0)
	}
	return idx
}
