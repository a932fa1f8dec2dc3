// Package gossip implements the basic push gossip-dissemination algorithm
// of Fig. 4 of the paper: periodically, each process picks F communication
// partners at random (SELECTPARTICIPANTS), packs up to N buffered events
// into a gossip message (SELECTEVENTS), and pushes it. Receivers
// deduplicate, re-buffer, and DELIVER events matching ISINTERESTED.
//
// Deviations from the paper: Fig. 4's PUBLISH only buffers the event, so
// each hop waits for its holder's next round. Here an event's first H
// hops leave at once (H is protocol.EagerHops, 4): the publisher pushes it
// to F partners on PUBLISH as hop 1, and a peer that receives a new event
// in a hop-h push relays it to F partners on receipt as hop h+1 while
// h < H (Buffer.FirstSend, at most once per peer and event). The hop
// travels on the wire (wire.KindEager). Rounds carry everything else as
// in Fig. 4. The eager sends are gossip charged like a round's
// (fairness.ClassApp), so §5.2's accounting does not change.
//
// Over the flat overlay a big event (Big: a record of 256 B or more)
// takes Plumtree's shape instead (Leitão, Pereira and Rodrigues,
// "Epidemic Broadcast Trees", SRDS 2007): every peer relays it in full to
// F partners once, when it first admits it from anyone, and Fig. 4's
// rounds repeat only its 8-byte id (SelectSplit), which a peer that lacks
// the event answers with a pull. The payload crosses about N × F links
// instead of once per round push until the event retires.
//
// The package provides the pieces of that round: the event buffer with
// age-based garbage collection and duplicate retirement, the
// duplicate-suppression set, the event-selection policies (an ablation
// axis) and the message size. internal/protocol composes them into the one
// peer; the classic baseline is that peer with its levers pinned.
package gossip

import (
	"math"
	"math/rand"
	"slices"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/randutil"
	"fairgossip/internal/wire"
)

// Policy selects which buffered events go into a gossip message — the
// paper's SELECTEVENTS(N in events).
type Policy uint8

const (
	// PolicyRandom picks uniformly at random among buffered events.
	PolicyRandom Policy = iota + 1
	// PolicyNewest prefers the events with the lowest age.
	PolicyNewest
	// PolicyLeastSent prefers events this process has forwarded least,
	// spreading forwarding effort across entries (round-robin-ish).
	PolicyLeastSent
)

// bufEntry is 16 bytes, and sim-huge holds BufferCap × N of them: the id
// is read through ev (in the simulator every holder points at the same
// event), and the two counters saturate at 16 bits (an entry is sent at
// most once a round and retires long before either matters) so that dups
// fits beside sent.
type bufEntry struct {
	ev   *pubsub.Event
	age  int32  // rounds since insertion
	sent uint16 // times included in an outgoing gossip message
	dups uint16 // copies of this event that came back (Duplicate)
}

// bufStart is the room the first Insert makes: a filling buffer then
// allocates at its first event and not at every doubling on the way
// here, whose rounds — on a cluster still warming up — are the seed's to
// pick (PERFORMANCE.md "A steady allocation count").
const bufStart = 8

// bump is a saturating increment.
func bump(c *uint16) {
	if *c != math.MaxUint16 {
		*c++
	}
}

// Buffer is the bounded `events` set of Fig. 4 with lpbcast-style
// age-based eviction: events older than MaxAge rounds are dropped, and
// when capacity overflows the first entry in buffer order goes. An event
// also leaves early once enough copies of it have come back (Duplicate).
//
// Buffer order is insertion order until a PolicyLeastSent selection,
// whose stable sort by send count reorders the entries in place and for
// good. A capacity eviction therefore removes the oldest entry under
// PolicyRandom and PolicyNewest, and the first of the least-sent entries
// once PolicyLeastSent has run — the order fixed-seed runs are pinned to
// (TestCapacityEvictionFollowsBufferOrder).
//
// The entries are one flat slice kept in buffer order and id lookup scans
// it: buffers hold tens of events, steady-state insert/evict churn
// allocates nothing and a round touches one contiguous block. The scan
// is what a buffer of a thousand events with a hundred arrivals a round
// would pay for (BenchmarkBufferRound); nothing in the tree builds one.
type Buffer struct {
	cap    int
	maxAge int32
	ents   []bufEntry // buffer order, eviction end first
	perm   []int      // scratch for PolicyRandom selection
}

// NewBuffer returns a buffer holding at most capacity events, each for at
// most maxAge rounds. Minimums of 1 apply.
func NewBuffer(capacity, maxAge int) *Buffer { return new(Buffer).Init(capacity, maxAge) }

// Init empties b in place, for a buffer held by value in its owner's
// record (the entries, which grow, are an allocation of their own).
func (b *Buffer) Init(capacity, maxAge int) *Buffer {
	*b = Buffer{cap: max(capacity, 1), maxAge: int32(min(max(maxAge, 1), math.MaxInt32))}
	return b
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.ents) }

// index returns the position of the entry holding id, or -1.
func (b *Buffer) index(id pubsub.EventID) int {
	ents := b.ents
	for i := range ents {
		if ents[i].ev.ID == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the event id is buffered.
func (b *Buffer) Contains(id pubsub.EventID) bool { return b.index(id) >= 0 }

// Get returns the buffered event with the given id, if present. Serving
// an event through Get (a pull) counts as a send for the least-sent
// selection policy.
func (b *Buffer) Get(id pubsub.EventID) (*pubsub.Event, bool) {
	i := b.index(id)
	if i < 0 {
		return nil, false
	}
	bump(&b.ents[i].sent)
	return b.ents[i].ev, true
}

// FirstSend returns the buffered event with the given id and marks it
// sent, if it has never been sent — by a round, a pull or an earlier
// FirstSend. It is how a peer's eager push of an event (the publisher's
// on Publish, a relay on receipt) happens at most once.
func (b *Buffer) FirstSend(id pubsub.EventID) (*pubsub.Event, bool) {
	i := b.index(id)
	if i < 0 || b.ents[i].sent != 0 {
		return nil, false
	}
	b.ents[i].sent = 1
	return b.ents[i].ev, true
}

// Insert adds an event. It reports false for duplicates. When the buffer
// is full, the first entry in buffer order is evicted to make room.
func (b *Buffer) Insert(ev *pubsub.Event) bool {
	if b.index(ev.ID) >= 0 {
		return false
	}
	e := bufEntry{ev: ev}
	if n := len(b.ents); n >= b.cap {
		copy(b.ents, b.ents[1:])
		b.ents[n-1] = e
		return true
	}
	if cap(b.ents) == 0 {
		b.ents = make([]bufEntry, 0, min(b.cap, bufStart))
	}
	b.ents = append(b.ents, e)
	return true
}

// retireCopies × the holder's batch is how many returned copies retire an
// event. Copies received per delivery set the miss probability (≈ e^-copies);
// 2 is the smallest factor that lost no delivery on any bench workload —
// 1 × batch lost one in 10⁶ on sim-huge (PERFORMANCE.md "Redundancy
// budget"). If a run ever loses a delivery to this rule the factor goes up.
const retireCopies = 2

// lazyRetireCopies is retireCopies for a big event (Big), whose round
// pushes carry its 8-byte id: announcing it longer costs a holder little,
// and a peer few others push to gets the event only by pulling it from a
// holder that still has it. At retireCopies a 16-peer live cluster under
// 30 % link loss lost a delivery in about one run of a hundred
// (TestLazyPushRepairsLoss: the peer's pulls met holders that had just
// retired the event); at lazyRetireCopies, in 1 of 2 600 (PERFORMANCE.md
// "Big events retire later").
const lazyRetireCopies = 2 * retireCopies

// Duplicate records that a copy of the event came back from the network
// — some peer already has it, so this holder's pushes of it are that much
// less likely to be news — and retires the event once retireCopies × batch
// copies (lazyRetireCopies × batch for a big one) have returned, batch
// being the holder's batch lever at this call. The duplicate is the ack:
// no copies return while an event is still spreading, so only the
// saturated tail of pushes is cut, and a throttled peer (small batch)
// stops sooner. An id the buffer does not hold is a no-op; the caller's
// SeenSet keeps a retired event from being buffered again. This is the
// one definition of the rule: the simulated node and the live peer both
// call it from their duplicate branch, for a full copy and for a lazy
// push's id alike.
func (b *Buffer) Duplicate(id pubsub.EventID, batch int) {
	i := b.index(id)
	if i < 0 {
		return
	}
	e := &b.ents[i]
	bump(&e.dups)
	if dups := int(e.dups); dups >= retireCopies*batch && (dups >= lazyRetireCopies*batch || !Big(e.ev)) {
		b.ents = slices.Delete(b.ents, i, i+1) // keeps buffer order, drops the event's reference
	}
}

// Tick advances every entry's age by one round and evicts expired
// entries. Call once per gossip round.
func (b *Buffer) Tick() {
	live := b.ents[:0]
	for _, e := range b.ents {
		if e.age++; e.age < b.maxAge {
			live = append(live, e)
		}
	}
	clear(b.ents[len(live):]) // drop the expired events' references
	b.ents = live
}

// SelectInto picks up to n distinct buffered events according to the
// policy, marking each as sent once, into caller-owned storage: the
// selection appends into *scratch (reset to length zero first), growing
// it when the batch exceeds its capacity — once, to the n asked for, not
// step by step as a filling buffer lengthens the batch — and returns the
// filled slice. The permutation scratch behind PolicyRandom is the
// buffer's own. The caller must not hand the returned slice to anything
// that outlives the scratch's next reuse; the pooled gossip envelope path
// copies out of it before the next round.
func (b *Buffer) SelectInto(rng *rand.Rand, scratch *[]*pubsub.Event, n int, policy Policy) []*pubsub.Event {
	full, _ := b.SelectSplit(rng, scratch, nil, n, policy)
	return full
}

// Lazy push: a big event — one whose record is at least lazyMinSize
// bytes — travels in full once per peer, when the peer first admits it
// (internal/protocol floods it then, through FirstSend), and every round
// push of it carries its 8-byte id instead (wire.KindLazy); a receiver
// that lacks the event pulls it. On live-udp-wan's 1 KB events this cut
// the wire bytes per delivery by 38 % against pushing the event in full
// until four copies had come back (PERFORMANCE.md "The lazy tier"). Every simulated workload's events are below the floor, so none
// of them goes lazy.
const lazyMinSize = 256

// Big reports whether ev is big enough to travel by id: a round push
// sends its id, and a peer floods it in full on first admission.
func Big(ev *pubsub.Event) bool { return ev.WireSize() >= lazyMinSize }

// SelectSplit is SelectInto with the batch split as it is picked: a big
// event's id goes to *lazy (reset to length zero first) instead
// of its event to *full. A nil lazy splits nothing. Both draw the same
// random numbers and mark the same entries sent.
func (b *Buffer) SelectSplit(rng *rand.Rand, full *[]*pubsub.Event, lazy *[]pubsub.EventID, n int, policy Policy) ([]*pubsub.Event, []pubsub.EventID) {
	out := (*full)[:0]
	*full = out
	var ids []pubsub.EventID
	if lazy != nil {
		ids = (*lazy)[:0]
		*lazy = ids
	}
	room := min(n, b.cap)
	n = min(n, len(b.ents))
	if n <= 0 {
		return out, ids
	}
	if cap(out) < n {
		out = make([]*pubsub.Event, 0, room)
	}
	if lazy != nil && cap(ids) < n {
		ids = make([]pubsub.EventID, 0, room)
	}
	take := func(e *bufEntry) {
		bump(&e.sent)
		if lazy != nil && Big(e.ev) {
			ids = append(ids, e.ev.ID)
		} else {
			out = append(out, e.ev)
		}
	}
	switch policy {
	case PolicyNewest:
		for i := len(b.ents) - n; i < len(b.ents); i++ {
			take(&b.ents[i])
		}
	case PolicyLeastSent:
		b.sortBySent()
		for i := range n {
			take(&b.ents[i])
		}
	default: // PolicyRandom
		for _, i := range randutil.PermInto(rng, &b.perm, len(b.ents))[:n] {
			take(&b.ents[i])
		}
	}
	*full = out
	if lazy != nil {
		*lazy = ids
	}
	return out, ids
}

// sortBySent is a stable insertion sort of the entries by ascending send
// count (buffers are small, and after the first round nearly sorted).
// It is what makes buffer order differ from insertion order.
func (b *Buffer) sortBySent() {
	for i := 1; i < len(b.ents); i++ {
		e := b.ents[i]
		j := i
		for ; j > 0 && e.sent < b.ents[j-1].sent; j-- {
			b.ents[j] = b.ents[j-1]
		}
		b.ents[j] = e
	}
}

// IDs returns the buffered ids in buffer order, in a fresh slice (a
// push-pull digest keeps it).
func (b *Buffer) IDs() []pubsub.EventID {
	out := make([]pubsub.EventID, len(b.ents))
	for i := range b.ents {
		out[i] = b.ents[i].ev.ID
	}
	return out
}

// MsgHeaderSize is the fixed wire overhead of a gossip message.
const MsgHeaderSize = wire.HeaderSize
