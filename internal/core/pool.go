package core

import (
	"sync"
	"sync/atomic"
)

// msgPool recycles gossip envelopes (wireMsg records and their Events/Ads
// backing arrays). Profiling showed per-round wireMsg allocation as the
// dominant steady-state allocation source once the kernel arena and the
// buffer slabs warmed up (PERFORMANCE.md): every node allocates one
// envelope plus an Events slice per round, none of which survives the
// fanout's last delivery.
//
// Lifecycle: get() hands out an envelope with one owner reference. The
// network retains once per in-flight copy it accepts (simnet.Refcounted)
// and releases when the delivery attempt completes; the sender drops its
// owner reference after the fanout loop. The last release recycles the
// envelope. Send-time losses never retain, so a fully-lost fanout
// recycles at the owner release — nothing leaks and nothing recycles
// early while a copy is still queued.
//
// The freelist is mutexed and the refcount atomic because a sharded run
// releases cross-shard deliveries on the destination shard's goroutine
// while the owning shard keeps allocating; within one single-threaded
// cluster the lock is uncontended and costs a few nanoseconds.
type msgPool struct {
	mu   sync.Mutex
	free []*wireMsg // guarded by mu
}

// get returns an envelope holding one owner reference. Kind and payload
// fields are zeroed; Events/Ads keep their backing capacity.
func (p *msgPool) get() *wireMsg {
	p.mu.Lock()
	var m *wireMsg
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if m == nil {
		m = &wireMsg{pool: p}
	}
	atomic.StoreInt32(&m.refs, 1)
	return m
}

// put resets and recycles an envelope whose refcount reached zero.
// Event pointers are cleared so the pool never pins delivered events;
// the slice capacity itself is the thing being recycled.
func (p *msgPool) put(m *wireMsg) {
	for i := range m.Events {
		m.Events[i] = nil
	}
	events, ads := m.Events[:0], m.Ads[:0]
	*m = wireMsg{pool: m.pool, Events: events, Ads: ads}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Retain adds an in-flight reference (simnet.Refcounted). Envelopes
// allocated outside a pool — walks, infra messages, forwarded copies —
// are plain garbage-collected values and both methods no-op on them.
func (m *wireMsg) Retain() {
	if m.pool == nil {
		return
	}
	atomic.AddInt32(&m.refs, 1)
}

// Release drops one reference; the last one recycles the envelope.
func (m *wireMsg) Release() {
	if m.pool == nil {
		return
	}
	if atomic.AddInt32(&m.refs, -1) == 0 {
		m.pool.put(m)
	}
}
