// Package clock owns the live runtime's wall-clock wake-ups. A Clock
// multiplexes any number of Alarms onto one wake source and one
// goroutine: an alarm never fires before its deadline, and one wake fires
// every alarm that is due by then.
//
// Wakes fall on a grid of Quantum, laid from the instant the Clock was
// made: a deadline is served by the first grid point at or after it, so
// it fires at most Quantum late (plus the kernel's timer slack and the
// scheduler's latency), alarms due in the same Quantum share one wake,
// and the clock wakes at most once per Quantum however many alarms it
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
	"container/heap"
	"sync"
	"time"
)

// Quantum is the grid wakes fall on: the most a deadline fires late
// beyond the kernel's and the scheduler's own latency. A finer grid
// wakes the clock more often for little latency; PERFORMANCE.md "Timers
// that fire when due" has the sweep that chose it.
const Quantum = 250 * time.Microsecond

// source is a one-shot wake the clock re-arms: the platform fork.
type source interface {
	arm(d time.Duration) // fire once, d from now, replacing any armed wake
	wait() bool          // block until a wake; false once closed
	close()              // stop; a blocked or later wait returns false
}

// Clock serves Alarms from one wake source. The zero value is not
// usable; call New. Its goroutine and source are made on the first
// alarm armed, and Close ends both.
type Clock struct {
	newSrc func() source
	epoch  time.Time // origin of the Quantum grid

	mu     sync.Mutex
	armed  alarms        // guarded by mu: a min-heap on due
	wake   time.Time     // guarded by mu: the grid point src is armed for; zero when none
	src    source        // guarded by mu: nil until the first alarm is armed
	closed bool          // guarded by mu
	done   chan struct{} // closed when the goroutine exits
}

// New returns a Clock on the platform's wake source.
func New() *Clock { return newClock(newSource) }

func newClock(newSrc func() source) *Clock {
	return &Clock{newSrc: newSrc, epoch: time.Now(), done: make(chan struct{})}
}

// NewAlarm returns an unarmed alarm on c.
func (c *Clock) NewAlarm() *Alarm {
	ch := make(chan struct{}, 1)
	return &Alarm{C: ch, c: ch, clk: c, idx: -1}
}

// Close disarms every alarm and returns once the clock's goroutine has
// exited. An alarm Set after Close never fires.
func (c *Clock) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, a := range c.armed {
		a.idx = -1
	}
	c.armed = nil
	src := c.src
	c.mu.Unlock()
	if src != nil {
		src.close()
		<-c.done
	}
}

// run is the clock's goroutine: it waits for each wake and fires what
// is due.
func (c *Clock) run(src source) {
	defer close(c.done)
	for src.wait() {
		c.fire()
	}
}

// fire rings every alarm due by now and arms the source for the rest.
func (c *Clock) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.wake = time.Time{}
	for len(c.armed) > 0 && !c.armed[0].due.After(now) {
		heap.Pop(&c.armed).(*Alarm).ring()
	}
	if len(c.armed) > 0 {
		c.armLocked(c.armed[0].due, now)
	}
}

// armLocked makes sure the source wakes by the grid point that serves
// due. An earlier wake already armed serves it too: fire re-arms for the
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
	c.src.arm(w.Sub(now))
}

// Alarm is one deadline on a Clock. It fires by a token on C, which
// holds at most one; Set and Stop discard a token not yet taken, so
// what arrives on C after either is for the new deadline. An Alarm's
// methods may be called from any goroutine.
type Alarm struct {
	C   <-chan struct{}
	c   chan struct{}
	clk *Clock
	due time.Time // guarded by clk.mu
	idx int       // guarded by clk.mu: index in clk.armed, -1 when not armed
}

// Set arms a to fire at due, replacing the deadline it had. A deadline
// already past fires at once.
func (a *Alarm) Set(due time.Time) {
	c := a.clk
	c.mu.Lock()
	defer c.mu.Unlock()
	a.disarmLocked()
	if c.closed {
		return
	}
	now := time.Now()
	if !due.After(now) {
		a.ring()
		return
	}
	a.due = due
	heap.Push(&c.armed, a)
	c.armLocked(due, now)
}

// Stop disarms a and discards a token it has not delivered.
func (a *Alarm) Stop() {
	a.clk.mu.Lock()
	defer a.clk.mu.Unlock()
	a.disarmLocked()
}

// disarmLocked takes a off the heap and drains C. Callers hold clk.mu,
// under which every ring happens, so no stale token lands after it.
func (a *Alarm) disarmLocked() {
	if a.idx >= 0 {
		heap.Remove(&a.clk.armed, a.idx)
	}
	select {
	case <-a.c:
	default:
	}
}

func (a *Alarm) ring() {
	select {
	case a.c <- struct{}{}:
	default:
	}
}

// alarms is a container/heap of armed alarms on due; each keeps its
// index so Set and Stop can remove it.
type alarms []*Alarm

func (h alarms) Len() int           { return len(h) }
func (h alarms) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h alarms) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *alarms) Push(x any) {
	a := x.(*Alarm)
	a.idx = len(*h)
	*h = append(*h, a)
}

func (h *alarms) Pop() any {
	old := *h
	a := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	a.idx = -1
	return a
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
