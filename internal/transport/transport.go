// Package transport is the pluggable message substrate of the live
// runtime: how an encoded wire envelope gets from one peer to another.
//
// A Net wires the N peers of one cluster together; each peer attaches
// once and gets back its Transport — the endpoint it sends through —
// plus inbound delivery through its Handler callback. Two
// implementations ship:
//
//   - ChanNet — in-process delivery: Send hands a copy of the bytes to
//     the destination's handler synchronously on the caller's goroutine.
//     This preserves the pre-transport live-runtime semantics (no
//     sockets, no kernel, deterministic drop accounting) and is the
//     default.
//   - UDPNet — one real loopback datagram socket per peer. Send writes
//     the envelope with WriteToUDP; a per-peer reader goroutine hands
//     each datagram to the handler. Oversized envelopes are refused at
//     the API (datagram-size enforcement), and Close quiesces — waits,
//     bounded, for datagrams the kernel has accepted to reach their
//     reader — so post-shutdown traffic audits see a settled network.
//
// Ownership contract, a datagram socket's: Send never keeps buf after it
// returns (write(2) semantics), so the sender may overwrite it at once.
// A buffer passed to a Handler is lent: the receiver may pass it back
// once through Net.Release and must not touch it after that (not
// releasing it is legal; the GC collects it). Handlers must not block:
// the live runtime's handler does a non-blocking inbox push and counts
// overflow as a drop, which is exactly how a saturated socket buffer
// behaves — except the loss is accounted.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Handler consumes one inbound encoded envelope.
type Handler func(buf []byte)

// Transport is a single peer's sending endpoint.
type Transport interface {
	// Send transmits buf to peer `to`. It never blocks on a slow
	// receiver and returns an error only for hard failures (unknown
	// destination, oversized datagram, closed Net); silent loss in
	// transit is the receiving side's counted problem, like a real
	// datagram socket. Send must not keep buf or hand it to a Handler
	// after it returns: copy it, the sender may overwrite it at once.
	Send(to int, buf []byte) error
	// LocalAddr renders the endpoint's address ("chan://3",
	// "127.0.0.1:51324").
	LocalAddr() string
}

// Net wires the N endpoints of one cluster together. Attach must be
// called exactly once per peer id before any traffic flows to it (the
// live runtime attaches every peer during cluster construction).
//
// Nets are growable: Attach with id equal to the current population
// extends the net by one endpoint — how a peer joins a running cluster.
// Growth is dense (ids are assigned in order); any other out-of-range
// id is an error. Attach is safe to call concurrently with Sends on
// existing endpoints.
type Net interface {
	Attach(id int, h Handler) (Transport, error)
	// Close tears down every endpoint. Socket transports first quiesce:
	// they wait (bounded) for datagrams already accepted by the kernel
	// to be delivered, so conservation checks after Close see a settled
	// network.
	Close() error
	// Release takes back a buffer a Handler was lent, for reuse; a Net
	// with nothing to recycle may make it a no-op.
	Release(buf []byte)
}

// Factory builds the Net for an n-peer cluster — the value of the
// live Config.Transport knob.
type Factory func(n int) (Net, error)

// Transport errors.
var (
	ErrClosed   = errors.New("transport: endpoint closed")
	ErrOversize = errors.New("transport: datagram exceeds size limit")
)

// Chan returns the in-process channel transport factory (the default).
func Chan() Factory {
	return func(n int) (Net, error) { return NewChanNet(n) }
}

// ChanNet delivers envelopes in-process: Send copies the bytes into a
// pooled buffer (the kernel's copy) and calls the destination's handler
// on the sender's goroutine. The handler's own inbox push is the only
// queueing, so drop accounting is exact and synchronous — the property
// the scenario engine's tightened drop-conservation invariant leans on.
//
// The handler table lives behind an atomic pointer and grows
// copy-on-write, so a joining peer's Attach never blocks (or races)
// the cluster's in-flight Sends.
type ChanNet struct {
	handlers atomic.Pointer[[]Handler]
	mu       sync.Mutex  // serialises Attach
	closed   atomic.Bool // set by Close: every endpoint refuses from then on
}

// NewChanNet builds an in-process substrate for n peers.
func NewChanNet(n int) (*ChanNet, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least 1 peer, got %d", n)
	}
	c := &ChanNet{}
	hs := make([]Handler, n)
	c.handlers.Store(&hs)
	return c, nil
}

// Attach implements Net; id == current population grows the net by one.
func (c *ChanNet) Attach(id int, h Handler) (Transport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hs := *c.handlers.Load()
	if id < 0 || id > len(hs) {
		return nil, fmt.Errorf("transport: peer id %d out of range [0,%d]", id, len(hs))
	}
	if h == nil {
		return nil, fmt.Errorf("transport: peer %d attached a nil handler", id)
	}
	if id < len(hs) && hs[id] != nil {
		return nil, fmt.Errorf("transport: peer %d attached twice", id)
	}
	// Copy-on-write even for pre-sized slots: a concurrent Send must
	// never observe a half-written table.
	grown := make([]Handler, max(len(hs), id+1))
	copy(grown, hs)
	grown[id] = h
	c.handlers.Store(&grown)
	return &chanEndpoint{net: c, id: id}, nil
}

// Close implements Net. In-process delivery holds no resources; every
// endpoint's later Send returns ErrClosed.
func (c *ChanNet) Close() error {
	c.closed.Store(true)
	return nil
}

// Release implements Net.
func (c *ChanNet) Release(buf []byte) { put(buf) }

type chanEndpoint struct {
	net *ChanNet
	id  int
}

func (e *chanEndpoint) Send(to int, buf []byte) error {
	if e.net.closed.Load() {
		return ErrClosed
	}
	hs := *e.net.handlers.Load()
	if to < 0 || to >= len(hs) {
		return fmt.Errorf("transport: no peer %d", to)
	}
	h := hs[to]
	if h == nil {
		// An unattached destination would otherwise be an uncounted
		// loss, and every loss must land in some bucket.
		return fmt.Errorf("transport: peer %d not attached", to)
	}
	h(clone(buf))
	return nil
}

func (e *chanEndpoint) LocalAddr() string { return fmt.Sprintf("chan://%d", e.id) }
