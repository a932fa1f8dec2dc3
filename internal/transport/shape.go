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
// in Drops()); delay, jitter and reorder hold the envelope as an entry
// on a clock.Clock, which delivers it through the substrate later — on
// the clock's goroutine when its wake comes, or on any shaped Send,
// which runs what is due on the clock (clock.Clock.Fire) before it
// returns. A hold is honoured to within clock.Quantum (plus the
// scheduler's latency) and never cut short: an envelope reaches the
// substrate no sooner than the Hold it drew, and envelopes due at the
// same instant reach it in send order.
//
// Send keeps no buffer under shaping either: a held envelope is a pooled
// copy, delivered to the substrate exactly once or counted dropped, then
// released; the inert and zero-delay paths pass the sender's buffer
// through without a copy. At most maxHeld envelopes are held at once: a
// Send that would hold one more is counted in Drops(), like profile
// loss, so a saturated shaper sheds load as a full inbox does. Close
// flushes every held envelope through the substrate before closing it,
// so conservation audits after Close see a settled network: every
// envelope the shaper accepted is either delivered or in Drops().
func Shape(inner Net, p Profile) *ShapedNet {
	s := &ShapedNet{inner: inner, clk: clock.New(), rng: rand.New(rand.NewSource(p.Seed))}
	prof := p
	s.prof.Store(&prof)
	return s
}

// maxHeld bounds how many envelopes one ShapedNet holds at once. A
// shaped live run peaks at about a thousand (PERFORMANCE.md "A bounded
// backlog"), so only a shaper that cannot keep up reaches it.
const maxHeld = 1 << 14

// ShapedNet is a Net decorated with a shaping Profile. See Shape.
type ShapedNet struct {
	inner Net
	clk   *clock.Clock
	prof  atomic.Pointer[Profile]
	drops atomic.Uint64

	mu     sync.Mutex  // guards rng, closed, held and spare
	rng    *rand.Rand  // guarded by mu
	closed bool        // guarded by mu
	held   int         // guarded by mu: envelopes on the clock
	spare  []*deferred // guarded by mu: records of delivered envelopes, for Send to reuse
}

// deferred is one held envelope — the shaper's pooled copy, due for
// delivery through the sender's substrate endpoint — and the arg of its
// clock entry. Records are reused, so holding allocates nothing once
// the shaper is warm.
type deferred struct {
	s   *ShapedNet
	ep  Transport
	to  int
	buf []byte
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

// Drops returns how many envelopes the shaper has eaten (profile loss,
// holds past maxHeld and deferred deliveries the substrate refused).
// Together with the substrate's own accounting this keeps sent == recv
// + dropped exact under shaping.
func (s *ShapedNet) Drops() uint64 { return s.drops.Load() }

// Clock is the clock the net holds envelopes on. A caller may schedule
// its own entries there (the live runtime's round ticks); Close closes
// it — that is how the holds still on it are delivered — so those
// entries end with the net.
func (s *ShapedNet) Clock() *clock.Clock { return s.clk }

// Held reports how many envelopes are currently deferred (test hook).
func (s *ShapedNet) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// Rebind implements Rebinder by delegation when the substrate can.
func (s *ShapedNet) Rebind(id int) (string, error) {
	if rb, ok := s.inner.(Rebinder); ok {
		return rb.Rebind(id)
	}
	return "", fmt.Errorf("transport: substrate cannot rebind peer %d", id)
}

// Close stops accepting sends, closes the clock — which waits for an
// envelope another goroutine is handing to the substrate, then delivers
// every other held envelope at once (refusals are counted drops) — and
// closes the substrate.
func (s *ShapedNet) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.clk.Close()
	return s.inner.Close()
}

// Release implements Net: handlers are lent the substrate's buffers.
func (s *ShapedNet) Release(buf []byte) { s.inner.Release(buf) }

// deliver is a held envelope's clock entry: it completes the envelope,
// releases the held copy and keeps the record for the next hold. The
// sender was told nil at Send time, so a substrate refusal here must be
// counted by the shaper or the envelope would vanish from the books.
func deliver(arg any) {
	d := arg.(*deferred)
	s := d.s
	if err := d.ep.Send(d.to, d.buf); err != nil {
		s.drops.Add(1)
	}
	put(d.buf)
	*d = deferred{}
	s.mu.Lock()
	s.held--
	s.spare = append(s.spare, d)
	s.mu.Unlock()
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
	defer s.clk.Fire()
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
	if s.held >= maxHeld {
		s.drops.Add(1)
		s.mu.Unlock()
		return nil
	}
	if len(s.spare) == 0 { // refill by the slab: a growing backlog allocates once per 64 holds
		slab := make([]deferred, 64)
		for i := range slab {
			s.spare = append(s.spare, &slab[i])
		}
	}
	h := s.spare[len(s.spare)-1]
	s.spare = s.spare[:len(s.spare)-1]
	*h = deferred{s: s, ep: e.inner, to: to, buf: clone(buf)}
	s.held++
	ok := s.clk.At(time.Now().Add(d), deliver, h)
	s.mu.Unlock()
	if !ok { // the clock was closed under the net: hand it over now
		deliver(h)
	}
	return nil
}

func (e *shapedEndpoint) LocalAddr() string { return e.inner.LocalAddr() }
