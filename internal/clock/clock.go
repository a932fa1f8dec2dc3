// Package clock is the live runtime's one timed queue. A Clock holds
// one-shot entries — run fn(arg) at due — in a heap on (due, seq) and
// serves them from one wake source and one goroutine: an entry never
// runs before its due time, entries due at the same instant run in the
// order they were scheduled, and one wake runs every entry due by then.
// Any goroutine may run what is due as well (Fire), but only one runs
// entries at a time, so entries never run concurrently and their order
// holds whoever runs them.
//
// Wakes fall on a grid of Quantum, laid from the instant the Clock was
// made: a due time is served by the first grid point at or after it, so
// it runs at most Quantum late (plus the kernel's timer slack and the
// scheduler's latency), entries due in the same Quantum share one wake,
// and the clock wakes at most once per Quantum however many entries it
// serves.
//
// On Linux the wake source is a CLOCK_MONOTONIC timerfd read through the
// runtime's netpoller, so a wake lands within the kernel's timer slack. A
// runtime timer (time.Timer) is no substitute there: Go 1.24's netpoller
// rounds every timer wait up to whole milliseconds, which put about half
// a millisecond of lateness on every shaped hop and every round tick.
// Elsewhere — and on Linux if no timerfd can be made — the source is a
// time.Timer.
package clock

import (
	"sync"
	"time"
)

// Quantum is the grid wakes fall on: the most an entry runs late beyond
// the kernel's and the scheduler's own latency. A finer grid wakes the
// clock more often for little latency; PERFORMANCE.md "Timers that fire
// when due" has the sweep that chose it.
const Quantum = 250 * time.Microsecond

// source is a one-shot wake the clock re-arms: the platform fork.
type source interface {
	arm(d time.Duration) // fire once, d from now, replacing any armed wake
	wait() bool          // block until a wake; false once closed
	close()              // stop; a blocked or later wait returns false
}

// Clock runs entries from one wake source. The zero value is not usable;
// call New. Its goroutine and source are made on the first entry
// scheduled, and Close ends both.
type Clock struct {
	newSrc func() source
	epoch  time.Time // origin of the Quantum grid

	mu     sync.Mutex
	queue  queue         // guarded by mu
	seq    uint64        // guarded by mu
	wake   time.Time     // guarded by mu: the grid point src is armed for; zero when none
	src    source        // guarded by mu: nil until the first entry is scheduled
	firing bool          // guarded by mu: a goroutine is running entries
	batch  []entry       // owned by the goroutine that set firing: the entries it popped and is running
	idle   sync.Cond     // on mu: broadcast when firing turns false
	closed bool          // guarded by mu
	done   chan struct{} // closed when the goroutine exits
}

// New returns a Clock on the platform's wake source.
func New() *Clock { return newClock(newSource) }

func newClock(newSrc func() source) *Clock {
	c := &Clock{newSrc: newSrc, epoch: time.Now(), done: make(chan struct{})}
	c.idle.L = &c.mu
	return c
}

// At schedules fn(arg) to run once at due, on the clock's goroutine or
// on a goroutine that calls Fire, outside the clock's lock. A due time
// already past runs on the next wake. At reports false, and fn never
// runs, once the clock is closed.
func (c *Clock) At(due time.Time, fn func(any), arg any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.seq++
	c.queue.push(entry{due: due, seq: c.seq, fn: fn, arg: arg})
	c.armLocked(due, time.Now())
	return true
}

// Fire runs every entry due by now, in (due, seq) order, unless another
// goroutine already is — which runs what falls due meanwhile too. The
// clock's goroutine calls it on each wake; a caller that cannot wait for
// that goroutine (one starved of the processor on a loaded box) calls it
// to run what is due itself.
func (c *Clock) Fire() {
	c.mu.Lock()
	if !c.firing && !c.closed {
		c.firing = true
		c.runLocked(false)
		if len(c.queue) > 0 {
			c.armLocked(c.queue[0].due, time.Now())
		}
		c.firing = false
		c.idle.Broadcast()
	}
	c.mu.Unlock()
}

// Close waits for the entries another goroutine is running, runs every
// entry left at once, in (due, seq) order, and returns once the clock's
// goroutine has exited.
func (c *Clock) Close() {
	c.mu.Lock()
	for c.firing {
		c.idle.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.firing = true
	c.runLocked(true)
	c.firing = false
	c.idle.Broadcast()
	src := c.src
	c.mu.Unlock()
	if src != nil {
		src.close()
		<-c.done
	}
}

// runLocked runs entries — all of them, or those due by now — a batch at
// a time: it pops every entry due, runs the batch with c.mu released, so
// goroutines the entries wake can schedule their next ones without
// waiting on the runner or making it wait on them, and repeats until
// none is due. Callers hold c.mu and have set firing.
func (c *Clock) runLocked(all bool) {
	for {
		for len(c.queue) > 0 && (all || !c.queue[0].due.After(time.Now())) {
			c.batch = append(c.batch, c.queue.pop())
		}
		if len(c.batch) == 0 {
			return
		}
		c.mu.Unlock()
		for i := range c.batch {
			c.batch[i].fn(c.batch[i].arg)
			c.batch[i] = entry{}
		}
		c.mu.Lock()
		c.batch = c.batch[:0]
	}
}

// run is the clock's goroutine: on each wake it forgets the wake it was
// armed for — whoever runs entries next re-arms for the head — and runs
// what is due.
func (c *Clock) run(src source) {
	defer close(c.done)
	for src.wait() {
		c.mu.Lock()
		c.wake = time.Time{}
		c.mu.Unlock()
		c.Fire()
	}
}

// armLocked makes sure the source wakes by the grid point that serves
// due. An earlier wake already armed serves it too: Fire re-arms for the
// head when that one comes. Callers hold c.mu.
func (c *Clock) armLocked(due, now time.Time) {
	w := c.epoch.Add((due.Sub(c.epoch) + Quantum - 1) / Quantum * Quantum)
	if !c.wake.IsZero() && !w.Before(c.wake) {
		return
	}
	if c.src == nil {
		c.src = c.newSrc()
		go c.run(c.src)
	}
	c.wake = w
	c.src.arm(max(w.Sub(now), 1)) // a wake already past: at once (0 would disarm)
}

// entry is one scheduled run.
type entry struct {
	due time.Time
	seq uint64 // tiebreak: equal due times run in scheduling order
	fn  func(any)
	arg any
}

// queue is a binary min-heap of entries on (due, seq), hand-rolled:
// container/heap would box each multi-word entry through an interface
// on the way in and again on the way out, an allocation apiece.
type queue []entry

func (q queue) less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}

func (q *queue) push(e entry) {
	h := append(*q, e)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest entry.
func (q *queue) pop() entry {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{} // drop the slot's hold on fn and arg
	h = h[:n]
	*q = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h.less(r, l) {
			small = r
		}
		if !h.less(small, i) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return e
}

// timerSource is the portable wake source: a runtime timer, which the
// netpoller serves to the millisecond.
type timerSource struct {
	t    *time.Timer
	halt chan struct{}
}

func newTimerSource() source {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerSource{t: t, halt: make(chan struct{})}
}

func (s *timerSource) arm(d time.Duration) { s.t.Reset(d) }

func (s *timerSource) wait() bool {
	select {
	case <-s.t.C:
		return true
	case <-s.halt:
		return false
	}
}

func (s *timerSource) close() {
	s.t.Stop()
	close(s.halt)
}
