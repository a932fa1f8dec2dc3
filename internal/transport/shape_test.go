package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/clock"
)

// shapeHarness attaches n counting endpoints through a ShapedNet over a
// ChanNet substrate. Each receiver records the envelopes it got (it
// never releases them, so they stay as delivered).
type shapeHarness struct {
	s   *ShapedNet
	eps []Transport
	mu  sync.Mutex
	got [][]byte // delivery order per receiver id interleaved; guarded by mu
	per []uint64 // deliveries per receiver
}

func newShapeHarness(t *testing.T, n int, p Profile) *shapeHarness {
	t.Helper()
	inner, err := NewChanNet(n)
	if err != nil {
		t.Fatal(err)
	}
	h := &shapeHarness{s: Shape(inner, p), per: make([]uint64, n)}
	for i := 0; i < n; i++ {
		i := i
		ep, err := h.s.Attach(i, func(buf []byte) {
			h.mu.Lock()
			h.got = append(h.got, buf)
			h.per[i]++
			h.mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		h.eps = append(h.eps, ep)
	}
	return h
}

func (h *shapeHarness) delivered() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.got)
}

// mark encodes (from, seq) into a payload so receivers can verify the
// bytes arrived exactly as sent.
func mark(from, seq, size int) []byte {
	if size < 8 {
		size = 8
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, uint32(from))
	binary.LittleEndian.PutUint32(buf[4:], uint32(seq))
	for i := 8; i < size; i++ {
		buf[i] = byte(from*31 + seq + i)
	}
	return buf
}

// TestShapeConservation is the books-balance property: under delay,
// jitter, reorder AND loss, every envelope the shaper accepted is either
// delivered or counted in Drops() once the net is closed. It is also the
// ownership property, on every substrate with and without the shaper:
// each sender reuses one buffer, checks Send left it untouched (a fanout
// sends one encoding to every target) and scribbles over it the moment
// Send returns, each receiver releases what it was lent, and still every
// delivered envelope is byte-identical to what its sender passed in —
// Send kept no reference, and no pooled buffer was handed out twice.
func TestShapeConservation(t *testing.T) {
	const n, perSender = 6, 200
	prof := Profile{
		Seed:    42,
		Delay:   200 * time.Microsecond,
		Jitter:  400 * time.Microsecond,
		Reorder: 0.2,
		Loss:    0.1,
	}
	for _, nc := range netCases {
		t.Run(nc.name, func(t *testing.T) {
			nw, shaped := nc.open(t, n, prof)
			var got, corrupt, touched atomic.Uint64
			eps := make([]Transport, n)
			for i := range eps {
				ep, err := nw.Attach(i, func(buf []byte) {
					from := int(binary.LittleEndian.Uint32(buf))
					seq := int(binary.LittleEndian.Uint32(buf[4:]))
					if !bytes.Equal(buf, mark(from, seq, len(buf))) {
						corrupt.Add(1)
					}
					got.Add(1)
					nw.Release(buf)
				})
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = ep
			}
			var wg sync.WaitGroup
			for from := 0; from < n; from++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []byte
					for seq := 0; seq < perSender; seq++ {
						buf = append(buf[:0], mark(from, seq, 16+seq%64)...)
						if err := eps[from].Send((from+1+seq)%n, buf); err != nil {
							t.Errorf("send: %v", err)
						}
						if !bytes.Equal(buf, mark(from, seq, len(buf))) {
							touched.Add(1)
						}
						for i := range buf {
							buf[i] = 0xEE
						}
					}
				}()
			}
			wg.Wait()
			if err := nw.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			var drops uint64
			if shaped != nil {
				if held := shaped.Held(); held != 0 {
					t.Fatalf("%d envelopes still held after Close", held)
				}
				if drops = shaped.Drops(); drops == 0 {
					t.Fatal("10% loss over 1200 sends dropped nothing; the loss path is dead")
				}
			}
			if total := uint64(n * perSender); got.Load()+drops != total {
				t.Fatalf("conservation: sent %d != delivered %d + dropped %d", total, got.Load(), drops)
			}
			if c := touched.Load(); c != 0 {
				t.Fatalf("%d Sends wrote to the buffer their sender passed in", c)
			}
			if c := corrupt.Load(); c != 0 {
				t.Fatalf("%d delivered envelopes differ from what their sender passed to Send", c)
			}
		})
	}
}

// TestShapeFIFOWithoutJitter: pure delay is a conveyor belt — per-link
// order is preserved exactly (the clock runs entries due at the same
// instant in the order they were scheduled).
func TestShapeFIFOWithoutJitter(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{Seed: 7, Delay: time.Millisecond})
	const k = 200
	for seq := 0; seq < k; seq++ {
		if err := h.eps[0].Send(1, mark(0, seq, 16)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.delivered() < k && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.got) != k {
		t.Fatalf("delivered %d of %d", len(h.got), k)
	}
	for i, buf := range h.got {
		if seq := int(binary.LittleEndian.Uint32(buf[4:])); seq != i {
			t.Fatalf("position %d got seq %d: FIFO broken without jitter", i, seq)
		}
	}
}

// TestDeferredQueueOrder: held envelopes reach the substrate in (due,
// send) order — the order of the clock's queue, which holds the
// shaper's deferred envelopes: an earlier due time first, and equal
// holds in the order they were sent. Each hold is an hour plus a random
// whole number of 10 ms steps (SetProfile before each Send), so none
// falls due on its own and Close delivers them all in queue order. An
// envelope's due time lies in its Send call's span plus its hold, so the
// test refuses any envelope that arrives before one whose due window
// lies wholly before its own, and any equal hold out of send order.
func TestDeferredQueueOrder(t *testing.T) {
	const k = 500
	h := newShapeHarness(t, 2, Profile{Seed: 5, Delay: time.Hour})
	rng := rand.New(rand.NewSource(5))
	type sent struct {
		step         int
		lower, upper time.Time // the envelope's due time lies between
	}
	var sends []sent
	for seq := 0; seq < k; seq++ {
		step := rng.Intn(40)
		hold := time.Hour + time.Duration(step)*10*time.Millisecond
		h.s.SetProfile(Profile{Delay: hold})
		before := time.Now()
		if err := h.eps[0].Send(1, mark(0, seq, 16)); err != nil {
			t.Fatal(err)
		}
		sends = append(sends, sent{step, before.Add(hold), time.Now().Add(hold)})
	}
	if held := h.s.Held(); held != k {
		t.Fatalf("held %d of %d", held, k)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.got) != k || h.s.Drops() != 0 {
		t.Fatalf("delivered %d of %d, %d dropped", len(h.got), k, h.s.Drops())
	}
	order := make([]int, k)
	for i, buf := range h.got {
		order[i] = int(binary.LittleEndian.Uint32(buf[4:]))
	}
	for i, a := range order {
		for _, b := range order[i+1:] {
			sa, sb := sends[a], sends[b]
			if sb.upper.Before(sa.lower) || (sa.step == sb.step && b < a) {
				t.Fatalf("envelope %d (hold step %d) arrived before envelope %d (hold step %d)", a, sa.step, b, sb.step)
			}
		}
	}
}

// TestShapeReorderHappens: with jitter and reorder configured, later
// envelopes must sometimes overtake earlier ones — the condition the
// WAN scenarios exist to create.
func TestShapeReorderHappens(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{
		Seed:    11,
		Delay:   100 * time.Microsecond,
		Jitter:  2 * time.Millisecond,
		Reorder: 0.3,
	})
	const k = 300
	for seq := 0; seq < k; seq++ {
		if err := h.eps[0].Send(1, mark(0, seq, 16)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.delivered() < k && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	inversions := 0
	for i := 1; i < len(h.got); i++ {
		a := int(binary.LittleEndian.Uint32(h.got[i-1][4:]))
		b := int(binary.LittleEndian.Uint32(h.got[i][4:]))
		if b < a {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("300 jittered envelopes arrived perfectly ordered; reorder is not happening")
	}
}

// TestShapeInertFastPath: the zero profile delegates synchronously —
// no holds, delivery completes inside Send.
func TestShapeInertFastPath(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{})
	if err := h.eps[0].Send(1, mark(0, 0, 16)); err != nil {
		t.Fatal(err)
	}
	if got := h.delivered(); got != 1 {
		t.Fatalf("inert profile should deliver synchronously, got %d", got)
	}
	if held := h.s.Held(); held != 0 {
		t.Fatalf("inert profile held %d envelopes", held)
	}
	if drops := h.s.Drops(); drops != 0 {
		t.Fatalf("inert profile dropped %d", drops)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSendDeliversWhatIsDue: a shaped Send runs what is due on the
// clock (clock.Clock.Fire) before it returns, whatever the clock's
// goroutine is doing — delivery follows the senders, so a clock
// goroutine starved of the processor cannot let a backlog of overdue
// envelopes grow. A handler that finds itself on a shaped Send's stack
// shows it: with 50 µs holds on a 250 µs wake grid, a sender that keeps
// sending finds envelopes due before the clock's goroutine wakes for
// them.
func TestSendDeliversWhatIsDue(t *testing.T) {
	inner, err := NewChanNet(2)
	if err != nil {
		t.Fatal(err)
	}
	s := Shape(inner, Profile{Seed: 3, Delay: 50 * time.Microsecond})
	defer s.Close()
	var bySender atomic.Int64
	stack := make([]byte, 16<<10) // deliveries run one at a time
	ep, err := s.Attach(0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Attach(1, func(buf []byte) {
		if n := runtime.Stack(stack, false); bytes.Contains(stack[:n], []byte("(*shapedEndpoint).Send")) {
			bySender.Add(1)
		}
		s.Release(buf)
	}); err != nil {
		t.Fatal(err)
	}
	msg := mark(0, 0, 16)
	for i := 0; i < 20000 && bySender.Load() == 0; i++ {
		if err := ep.Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	if bySender.Load() == 0 {
		t.Fatal("20 000 shaped Sends delivered no held envelope themselves; only the clock's goroutine delivers")
	}
}

// TestShapeCloseFlushesHeld: envelopes still in flight when Close lands
// are delivered (not leaked), keeping the books balanced at teardown.
func TestShapeCloseFlushesHeld(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{Seed: 9, Delay: time.Hour}) // never due on its own
	const k = 50
	for seq := 0; seq < k; seq++ {
		if err := h.eps[0].Send(1, mark(0, seq, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if held := h.s.Held(); held != k {
		t.Fatalf("held %d of %d", held, k)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, drops := uint64(h.delivered()), h.s.Drops(); got+drops != k || got == 0 {
		t.Fatalf("flush: delivered %d + dropped %d != sent %d", got, drops, k)
	}
}

// TestHeldBacklogIsBounded: a shaper holds at most maxHeld envelopes.
// A delayed Send past that is counted in Drops() and returns nil, like
// profile loss, and Close still settles the books: every envelope sent
// is delivered or dropped. Without the bound one sender outpacing the
// clock's runner grew the held backlog without limit.
func TestHeldBacklogIsBounded(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{Seed: 9, Delay: time.Hour}) // never due on its own
	const sent = maxHeld + 100
	for seq := 0; seq < sent; seq++ {
		if err := h.eps[0].Send(1, mark(0, seq, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if held, drops := h.s.Held(), h.s.Drops(); held != maxHeld || drops != 100 {
		t.Fatalf("held %d and dropped %d of %d, want %d and 100", held, drops, sent, maxHeld)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, drops := uint64(h.delivered()), h.s.Drops(); got+drops != sent {
		t.Fatalf("after Close: delivered %d + dropped %d != sent %d", got, drops, sent)
	}
}

// gatedEndpoint is a substrate endpoint whose Send announces itself on
// entered and blocks until open is closed.
type gatedEndpoint struct {
	Transport
	entered, open chan struct{}
}

func (g *gatedEndpoint) Send(to int, buf []byte) error {
	close(g.entered)
	<-g.open
	return g.Transport.Send(to, buf)
}

// TestCloseWaitsForADeliveryInHand: Close does not close the substrate
// under a goroutine that took a held envelope off the clock and is still
// handing it over; that envelope is delivered, not dropped.
func TestCloseWaitsForADeliveryInHand(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{Seed: 3, Loss: 1e-9}) // shaped, but holds nothing of its own
	g := &gatedEndpoint{Transport: h.eps[0].(*shapedEndpoint).inner, entered: make(chan struct{}), open: make(chan struct{})}
	h.s.mu.Lock()
	h.s.held++
	h.s.mu.Unlock()
	h.s.clk.At(time.Now().Add(-time.Millisecond), deliver, &deferred{s: h.s, ep: g, to: 1, buf: clone(mark(0, 0, 16))})
	<-g.entered // the clock's goroutine is delivering it
	closed := make(chan error, 1)
	go func() { closed <- h.s.Close() }()
	select {
	case err := <-closed:
		close(g.open)
		t.Fatalf("Close returned (%v) while a held envelope was still being delivered", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.open)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got, drops, held := h.delivered(), h.s.Drops(), h.s.Held(); got != 1 || drops != 0 || held != 0 {
		t.Fatalf("%d delivered, %d dropped, %d held; want the envelope delivered", got, drops, held)
	}
}

// gateOnSender is a substrate endpoint whose first Send made on a shaped
// Send's stack — a sender that took a held envelope off the clock
// (clock.Clock.Fire) — announces itself on entered and blocks until
// open is closed. Sends made on the clock's goroutine pass through.
type gateOnSender struct {
	Transport
	gated         atomic.Bool
	entered, open chan struct{}
	stack         []byte // deliveries run one at a time
}

func (g *gateOnSender) Send(to int, buf []byte) error {
	if !g.gated.Load() {
		if n := runtime.Stack(g.stack, false); bytes.Contains(g.stack[:n], []byte("(*shapedEndpoint).Send")) {
			g.gated.Store(true)
			close(g.entered)
			<-g.open
		}
	}
	return g.Transport.Send(to, buf)
}

// TestCloseWaitsForASendersDelivery: Close does not close the substrate
// under a sender that took a held envelope off the clock and is still
// handing it over; that Send returns nil and the envelope is delivered,
// not dropped. Whether a sender or the clock's goroutine runs a due
// entry is a race, so the sender keeps sending 50 µs holds until one of
// its own Sends delivers (as TestSendDeliversWhatIsDue does), and that
// delivery is held at the gate.
func TestCloseWaitsForASendersDelivery(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{Seed: 3, Delay: 50 * time.Microsecond})
	se := h.eps[0].(*shapedEndpoint)
	g := &gateOnSender{Transport: se.inner, entered: make(chan struct{}), open: make(chan struct{}), stack: make([]byte, 16<<10)}
	se.inner = g
	var n int
	sent := make(chan error, 1)
	go func() {
		msg := mark(0, 0, 16)
		for ; n < 20000 && !g.gated.Load(); n++ {
			if err := se.Send(1, msg); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case <-g.entered:
	case err := <-sent:
		t.Fatalf("no shaped Send delivered a held envelope itself (%v)", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- h.s.Close() }()
	select {
	case err := <-closed:
		close(g.open)
		t.Fatalf("Close returned (%v) while a sender was still delivering a held envelope", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.open)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned once the sender's delivery was let through")
	}
	if got, drops, held := h.delivered(), h.s.Drops(), h.s.Held(); got != n || drops != 0 || held != 0 {
		t.Fatalf("%d delivered, %d dropped, %d held of %d sent; want every envelope delivered", got, drops, held, n)
	}
}

// TestShapeRebindDelegation: Shape over a rebindable substrate rebinds;
// over ChanNet it reports the substrate cannot.
func TestShapeRebindDelegation(t *testing.T) {
	inner, err := NewUDPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	s := Shape(inner, Profile{})
	var got atomic.Uint64
	for i := 0; i < 2; i++ {
		if _, err := s.Attach(i, func([]byte) { got.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	before := inner.table.Load().addrs[1].String()
	addr, err := s.Rebind(1)
	if err != nil {
		t.Fatalf("rebind through shaper: %v", err)
	}
	if addr == before {
		t.Fatalf("rebind kept address %s", addr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	chanInner, _ := NewChanNet(2)
	cs := Shape(chanInner, Profile{})
	if _, err := cs.Rebind(0); err == nil {
		t.Fatal("chan substrate claimed it can rebind")
	}
	_ = cs.Close()
}

// TestUDPRebindKeepsDelivering: the make-before-break move loses nothing
// — datagrams sent before and after the rebind all arrive, and the
// peer's address changes.
func TestUDPRebindKeepsDelivering(t *testing.T) {
	u, err := NewUDPNet(2)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Uint64
	ep0, err := u.Attach(0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := u.Attach(1, func([]byte) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	before := ep1.LocalAddr()
	const k = 20
	for i := 0; i < k; i++ {
		if err := ep0.Send(1, mark(0, i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := u.Rebind(1)
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if addr == before || ep1.LocalAddr() != addr {
		t.Fatalf("rebind address: before=%s after=%s endpoint=%s", before, addr, ep1.LocalAddr())
	}
	for i := 0; i < k; i++ {
		if err := ep0.Send(1, mark(0, k+i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Close(); err != nil { // quiesces: both sockets drain first
		t.Fatal(err)
	}
	if got.Load() != 2*k {
		t.Fatalf("delivered %d of %d across a rebind", got.Load(), 2*k)
	}
	if _, err := u.Rebind(1); err == nil {
		t.Fatal("rebind after Close succeeded")
	}
}

// TestShapeAttachGrowth: a joiner attaching through the shaper grows the
// substrate exactly as it would unshaped.
func TestShapeAttachGrowth(t *testing.T) {
	h := newShapeHarness(t, 2, Profile{Seed: 1, Delay: 100 * time.Microsecond})
	var got atomic.Uint64
	ep2, err := h.s.Attach(2, func([]byte) { got.Add(1) })
	if err != nil {
		t.Fatalf("grow through shaper: %v", err)
	}
	if err := ep2.Send(0, mark(2, 0, 16)); err != nil {
		t.Fatal(err)
	}
	if err := h.eps[0].Send(2, mark(0, 0, 16)); err != nil {
		t.Fatal(err)
	}
	if err := h.s.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 1 || h.delivered() != 1 {
		t.Fatalf("joiner traffic: joiner got %d, founders got %d", got.Load(), h.delivered())
	}
}

func BenchmarkShapedSend(b *testing.B) {
	bench := func(b *testing.B, p Profile) {
		inner, _ := NewChanNet(2)
		s := Shape(inner, p)
		defer s.Close()
		_, _ = s.Attach(1, s.Release)
		ep, _ := s.Attach(0, s.Release)
		buf := mark(0, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ep.Send(1, buf)
		}
	}
	b.Run("inert", func(b *testing.B) { bench(b, Profile{}) })
	b.Run("loss-only", func(b *testing.B) { bench(b, Profile{Seed: 1, Loss: 0.01}) })
	b.Run("deferred", func(b *testing.B) {
		bench(b, Profile{Seed: 1, Delay: 50 * time.Microsecond, Jitter: 50 * time.Microsecond})
	})
	b.Run("unshaped-baseline", func(b *testing.B) {
		inner, _ := NewChanNet(2)
		defer inner.Close()
		_, _ = inner.Attach(1, inner.Release)
		ep, _ := inner.Attach(0, inner.Release)
		buf := mark(0, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ep.Send(1, buf)
		}
	})
}

// TestHeldEnvelopesLandOnTime: a held envelope reaches the substrate no
// sooner than its hold, and in the median within clock.Quantum + 100 µs
// of it. The hold is stepped through fractional milliseconds with
// SetProfile, because whole-millisecond holds hide what a runtime timer
// does here: the netpoller rounds its wait up to whole milliseconds,
// which read 450–600 µs of median lateness before the shaper's holds
// moved onto internal/clock. Each envelope is sent once the last one
// has landed, so every hold is timed from an idle shaper, as a sparse
// link's are. make timers prints the lateness line.
func TestHeldEnvelopesLandOnTime(t *testing.T) {
	const n = 200
	inner, err := NewChanNet(2)
	if err != nil {
		t.Fatal(err)
	}
	s := Shape(inner, Profile{Seed: 1})
	defer s.Close()
	landed := make(chan time.Time, 1)
	ep, err := s.Attach(0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Attach(1, func(buf []byte) {
		landed <- time.Now()
		s.Release(buf)
	}); err != nil {
		t.Fatal(err)
	}
	late := make([]time.Duration, 0, n)
	for i := range n {
		hold := time.Millisecond + time.Duration(i*137%1000)*time.Microsecond
		s.SetProfile(Profile{Delay: hold})
		sent := time.Now()
		if err := ep.Send(1, mark(0, i, 16)); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-landed:
			if d := at.Sub(sent) - hold; d < 0 {
				t.Fatalf("envelope %d held %v landed %v early", i, hold, -d)
			} else {
				late = append(late, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("envelope %d held %v never landed", i, hold)
		}
	}
	slices.Sort(late)
	p := func(q float64) time.Duration { return late[int(q*float64(n-1))].Round(time.Microsecond) }
	t.Logf("hold lateness: p50 %v  p90 %v  p99 %v  (n = %d, quantum %v)", p(0.5), p(0.9), p(0.99), n, clock.Quantum)
	if bound := (clock.Quantum + 100*time.Microsecond) * raceTimingScale; p(0.5) > bound {
		t.Fatalf("median hold lateness %v, want ≤ %v", p(0.5), bound)
	}
}
