package core

import (
	"sync"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/wire"
)

// msgPool recycles the envelopes of every kind (wireMsg records, their
// parts and the arrays they hold). Profiling showed per-round wireMsg
// allocation as the dominant steady-state allocation source once the
// kernel arena and the buffer slabs warmed up (PERFORMANCE.md): a node
// sends an envelope every round and an offer or a reply every shuffle,
// none of which survives its last delivery.
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
//
// That hand-back is a wall-clock race: in the window after a neighbour
// shard's jittered ticker skips one, the owner has no cross-shard
// deliveries to work through, reaches its own tick while the neighbour is
// still releasing last round's envelopes, and finds the freelist empty
// for most of its nodes — once per shard, in a round the seed picks, for
// a count the scheduler picks. An empty freelist therefore restocks by
// the slab (refill), so that such a round costs 2/poolSlab allocations a
// miss instead of 2 and a run's allocation count stops depending on
// either.
type msgPool struct {
	mu   sync.Mutex
	free []*wireMsg // guarded by mu
}

// get returns an envelope holding one owner reference. Kind and payload
// fields are zeroed; Events/Ads keep their backing capacity.
func (p *msgPool) get() *wireMsg {
	p.mu.Lock()
	if len(p.free) == 0 {
		p.refill()
	}
	n := len(p.free)
	m := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	m.refs.Store(1)
	return m
}

// poolSlab is how many envelopes an empty freelist allocates at once.
const poolSlab = 64

// refill stocks the freelist with poolSlab envelopes in two allocations:
// the records, and one block their Events arrays are cut from (room for
// the default batch each; a larger batch regrows its own). Called with mu
// held.
func (p *msgPool) refill() {
	slab := make([]wireMsg, poolSlab)
	store := make([]*pubsub.Event, poolSlab*defaultBatch)
	for i := range slab {
		slab[i].pool = p
		slab[i].Events = store[i*defaultBatch : i*defaultBatch : (i+1)*defaultBatch]
		p.free = append(p.free, &slab[i])
	}
}

// envelope returns a pooled envelope holding a copy of o — its events,
// entries and parts in the envelope's own arrays — with one owner
// reference.
func (p *msgPool) envelope(o *wire.Msg) *wireMsg {
	m := p.get()
	m.Kind, m.Hop = o.Kind, o.Hop
	m.Events = append(m.Events[:0], o.Events...)
	m.Entries = append(m.Entries[:0], o.Entries...)
	if o.Parts != nil {
		x := m.extend()
		ads, ids, fpAds := x.Ads, x.IDs, x.FPAds
		*x = *o.Parts
		x.Ads = append(ads, o.Parts.Ads...)
		x.IDs = append(ids, o.Parts.IDs...)
		x.FPAds = append(fpAds, o.Parts.FPAds...)
	}
	return m
}

// put resets and recycles an envelope whose refcount reached zero.
// Event pointers are cleared so the pool never pins delivered events;
// the slice capacity itself is the thing being recycled, and so are the
// parts, when the envelope has them.
func (p *msgPool) put(m *wireMsg) {
	clear(m.Events)
	if x := m.Parts; x != nil {
		*x = wire.Parts{Ads: x.Ads[:0], IDs: x.IDs[:0], FPAds: x.FPAds[:0]}
	}
	*m = wireMsg{pool: m.pool, Msg: wire.Msg{Events: m.Events[:0], Entries: m.Entries[:0], Parts: m.Parts}}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Retain adds an in-flight reference (simnet.Refcounted). A plain
// allocated message (a test's) is garbage-collected: both methods no-op
// on it.
func (m *wireMsg) Retain() {
	if m.pool == nil {
		return
	}
	m.refs.Add(1)
}

// Release drops one reference; the last one recycles the envelope.
func (m *wireMsg) Release() {
	if m.pool == nil {
		return
	}
	if m.refs.Add(-1) == 0 {
		m.pool.put(m)
	}
}
