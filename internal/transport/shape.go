package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fairgossip/internal/clock"
)

// Profile parameterises the shaping middleware: what the network between
// two endpoints does to an envelope beyond delivering it instantly. The
// zero value is an inert profile (no delay, no loss) — shaping it costs
// one atomic load per Send. A ShapedNet honours each Hold to within
// clock.Quantum (the scheduler's latency aside), and never delivers an
// envelope before it.
type Profile struct {
	// Seed drives every stochastic decision the shaper makes (loss
	// draws, jitter draws, reorder draws). Shape captures it once at
	// construction; SetProfile does not reseed, so a mid-run profile
	// change never replays the random stream.
	Seed int64
	// Delay is the base one-way delay added to every envelope.
	Delay time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) per envelope —
	// enough variance and later envelopes overtake earlier ones.
	Jitter time.Duration
	// Reorder is the probability an envelope draws an additional hold of
	// up to 3·(Delay+Jitter), forcing overtaking even when Jitter alone
	// would rarely produce it.
	Reorder float64
	// Loss is the i.i.d. probability an envelope is eaten in transit.
	// The sender is not told — like a real datagram network — but the
	// loss is counted in Drops().
	Loss float64
}

// Hold draws how long the shaper holds one envelope: Delay, plus a
// uniform jitter in [0, Jitter), plus, with probability Reorder, an
// extra hold of up to 3·(Delay+Jitter) that lets it overtake later
// traffic. It draws the jitter, the reorder coin and the reorder span
// from rng in that order, each only when its field is set, so a zero
// profile draws nothing and holds nothing. The simulator's shaped
// latency model draws through it too.
func (p Profile) Hold(rng *rand.Rand) time.Duration {
	d := p.Delay
	if p.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(p.Jitter)))
	}
	if p.Reorder > 0 && rng.Float64() < p.Reorder {
		span := 3 * (p.Delay + p.Jitter)
		if span <= 0 {
			span = time.Millisecond
		}
		d += time.Duration(rng.Int63n(int64(span)))
	}
	return d
}

// inert reports whether the profile shapes nothing.
func (p Profile) inert() bool {
	return p.Delay == 0 && p.Jitter == 0 && p.Reorder == 0 && p.Loss == 0
}

// Rebinder is the optional Net capability behind mobile peers: move one
// endpoint to a fresh transport address while the cluster runs. UDPNet
// implements it make-before-break (the old socket keeps draining until
// Net.Close, so no datagram in flight is lost); ShapedNet delegates to
// its substrate. The in-process ChanNet has nothing to rebind — its
// address is the peer id itself.
type Rebinder interface {
	Rebind(id int) (string, error)
}

// Shape wraps any Net in the shaping middleware. Outbound envelopes are
// intercepted at Send time: the loss verdict is immediate (and counted
// in Drops()); delay, jitter and reorder hold the envelope in a
// time-ordered queue and deliver it through the substrate later — by
// whichever goroutine next finds it due: a dispatcher goroutine, woken by
// an alarm on the shaper's clock.Clock, or any shaped Send (deliverDue).
// A hold is honoured to within clock.Quantum (plus the scheduler's
// latency) and never cut short: an envelope reaches the substrate no
// sooner than the Hold it drew.
//
// Send keeps no buffer under shaping either: a held envelope is a pooled
// copy, delivered to the substrate exactly once or counted dropped, then
// released; the inert and zero-delay paths pass the sender's buffer
// through without a copy. Close flushes every held envelope through the
// substrate before closing it, so conservation audits after Close see a
// settled network: every envelope the shaper accepted is either
// delivered or in Drops().
func Shape(inner Net, p Profile) *ShapedNet {
	s := ShapeOn(inner, p, clock.New())
	s.ownClock = true
	return s
}

// ShapeOn is Shape with its alarms on clk, a clock the caller shares
// with its own wake-ups (the live runtime's round ticks) and closes
// after the ShapedNet.
func ShapeOn(inner Net, p Profile, clk *clock.Clock) *ShapedNet {
	s := &ShapedNet{
		inner: inner,
		rng:   rand.New(rand.NewSource(p.Seed)),
		clk:   clk,
		halt:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.idle.L = &s.mu
	prof := p
	s.prof.Store(&prof)
	return s
}

// ShapedNet is a Net decorated with a shaping Profile. See Shape.
type ShapedNet struct {
	inner Net
	prof  atomic.Pointer[Profile]
	drops atomic.Uint64

	mu         sync.Mutex    // guards rng, queue, seq, closed, running, delivering
	rng        *rand.Rand    // guarded by mu
	queue      deferredQueue // guarded by mu
	seq        uint64        // guarded by mu
	closed     bool          // guarded by mu
	running    bool          // guarded by mu -- dispatcher goroutine started (lazily, on first hold)
	delivering bool          // guarded by mu -- a goroutine is delivering what is due (deliverDue)
	idle       sync.Cond     // on mu: broadcast when delivering turns false (Close waits on it)

	clk       *clock.Clock
	ownClock  bool         // Close closes clk (Shape made it)
	alarm     *clock.Alarm // set, under mu, for the earliest held envelope; made with the dispatcher
	halt      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// deferred is one held envelope: the shaper's pooled copy, due for
// delivery through the sender's substrate endpoint.
type deferred struct {
	due time.Time
	seq uint64 // FIFO tiebreak: equal due times deliver in send order
	ep  Transport
	to  int
	buf []byte
}

// deferredQueue is a binary min-heap on (due, seq), hand-rolled like
// eventsim's: container/heap would box each multi-word deferred through
// an interface on the way in and again on the way out, one allocation
// apiece on the shaped send path.
type deferredQueue []deferred

func (q deferredQueue) less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}

func (q *deferredQueue) push(d deferred) {
	h := append(*q, d)
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

// pop removes and returns the earliest held envelope.
func (q *deferredQueue) pop() deferred {
	h := *q
	d := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = deferred{} // drop the slot's hold on the envelope
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
	return d
}

// Attach implements Net: handlers pass straight through to the
// substrate (shaping is applied on the send side only), and the
// returned endpoint wraps the substrate's.
func (s *ShapedNet) Attach(id int, h Handler) (Transport, error) {
	inner, err := s.inner.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return &shapedEndpoint{s: s, inner: inner}, nil
}

// SetProfile swaps the shaping profile for all subsequent Sends.
// Envelopes already held keep the delay they drew.
func (s *ShapedNet) SetProfile(p Profile) {
	prof := p
	s.prof.Store(&prof)
}

// Drops returns how many envelopes the shaper has eaten (profile loss
// and deferred deliveries the substrate refused). Together with the
// substrate's own accounting this keeps sent == recv + dropped exact
// under shaping.
func (s *ShapedNet) Drops() uint64 { return s.drops.Load() }

// Held reports how many envelopes are currently deferred (test hook).
func (s *ShapedNet) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Rebind implements Rebinder by delegation when the substrate can.
func (s *ShapedNet) Rebind(id int) (string, error) {
	if rb, ok := s.inner.(Rebinder); ok {
		return rb.Rebind(id)
	}
	return "", fmt.Errorf("transport: substrate cannot rebind peer %d", id)
}

// Close stops accepting sends, waits for a sender that is handing a held
// envelope to the substrate, flushes every other held envelope through the
// substrate immediately (refusals are counted drops), then closes the
// substrate.
func (s *ShapedNet) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		for s.delivering { // deliverDue pops nothing more once closed is set
			s.idle.Wait()
		}
		running := s.running
		s.mu.Unlock()
		if running {
			close(s.halt)
			<-s.done // dispatcher flushed the queue on its way out
		}
		if s.ownClock {
			s.clk.Close()
		}
	})
	return s.inner.Close()
}

// Release implements Net: handlers are lent the substrate's buffers.
func (s *ShapedNet) Release(buf []byte) { s.inner.Release(buf) }

// holdLocked queues one envelope for deferred delivery and sets the
// alarm when it is the earliest held. Callers hold s.mu.
func (s *ShapedNet) holdLocked(d deferred) {
	s.seq++
	d.seq = s.seq
	s.queue.push(d)
	if !s.running {
		s.running = true
		s.alarm = s.clk.NewAlarm()
		go s.dispatch()
	}
	if s.queue[0].seq == d.seq {
		s.alarm.Set(d.due)
	}
}

// dispatch is the dispatcher goroutine: the alarm wakes it when the
// earliest held envelope is due, and it delivers what is due — unless a
// sender already is, which re-sets the alarm when done. On Close it
// drains everything left immediately.
func (s *ShapedNet) dispatch() {
	defer close(s.done)
	for {
		select {
		case <-s.alarm.C:
			s.deliverDue()
		case <-s.halt:
			s.alarm.Stop()
			s.mu.Lock()
			rest := s.queue
			s.queue = nil
			s.mu.Unlock()
			// Flush in due order (heap order is close enough for a
			// teardown path, but due order keeps FIFO per link).
			for len(rest) > 0 {
				s.deliver(rest.pop())
			}
			return
		}
	}
}

// deliverDue delivers every held envelope that is due, in (due, seq)
// order, unless another goroutine already is. Every shaped Send calls it,
// not only the dispatcher: when the processors are busy (a loaded box, the
// race detector) one goroutine's share of them cannot carry the whole
// net's deliveries, and a backlog only it drains grows without bound —
// thousands of envelopes, tens of rounds overdue. Sharing the work makes
// the senders pay for delivery as they send, so the backlog stays bounded
// by what is due. Once the net is closed it pops nothing more: the
// dispatcher's drain delivers the rest, after Close has waited out the
// envelope in hand.
func (s *ShapedNet) deliverDue() {
	s.mu.Lock()
	if s.delivering {
		s.mu.Unlock()
		return
	}
	s.delivering = true
	popped := false
	for !s.closed && len(s.queue) > 0 && !s.queue[0].due.After(time.Now()) {
		d := s.queue.pop()
		popped = true
		s.mu.Unlock()
		s.deliver(d)
		s.mu.Lock()
	}
	if popped && !s.closed && len(s.queue) > 0 { // the head moved: wake for the new one
		s.alarm.Set(s.queue[0].due)
	}
	s.delivering = false
	s.idle.Broadcast()
	s.mu.Unlock()
}

// deliver completes one deferred envelope and releases the held copy.
// The sender was told nil at Send time, so a substrate refusal here must
// be counted by the shaper or the envelope would vanish from the books.
func (s *ShapedNet) deliver(d deferred) {
	if err := d.ep.Send(d.to, d.buf); err != nil {
		s.drops.Add(1)
	}
	put(d.buf)
}

type shapedEndpoint struct {
	s     *ShapedNet
	inner Transport
}

// Send applies the profile to one envelope. Shaper losses return nil —
// the sender learns nothing, like a real network — and are counted in
// Drops(); hard substrate failures on the synchronous path surface as
// errors exactly as they would unshaped.
func (e *shapedEndpoint) Send(to int, buf []byte) error {
	s := e.s
	p := s.prof.Load()
	if p.inert() {
		return e.inner.Send(to, buf)
	}
	defer s.deliverDue()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if p.Loss > 0 && s.rng.Float64() < p.Loss {
		s.drops.Add(1)
		s.mu.Unlock()
		return nil
	}
	d := p.Hold(s.rng)
	if d <= 0 {
		s.mu.Unlock()
		return e.inner.Send(to, buf)
	}
	s.holdLocked(deferred{due: time.Now().Add(d), ep: e.inner, to: to, buf: clone(buf)})
	s.mu.Unlock()
	return nil
}

func (e *shapedEndpoint) LocalAddr() string { return e.inner.LocalAddr() }
