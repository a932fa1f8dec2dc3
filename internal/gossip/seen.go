package gossip

import (
	"math"

	"fairgossip/internal/pubsub"
)

// SeenSet remembers recently observed event IDs for duplicate suppression
// (the `delivered`/`events` union of Fig. 4 outlives the buffer so that
// expired events are not re-delivered). Eviction is FIFO.
//
// The ids sit in a circular FIFO ring of packed (publisher, seq) keys, and
// an open-addressed hash table (linear probing, backward-shift deletion)
// indexes them by ring position: a slot holds a position + 1, so 0 marks a
// free slot and every id, the all-ones one included, can be remembered.
// With the table kept at most half full an id costs 16 bytes — 8 in the
// ring, two 4-byte slots — where keys in the slots cost 24. Membership
// tests are the single hottest operation of the whole simulation — every
// event in every gossip message passes through Add — and the flat table
// roughly halves their cost versus a Go map while allocating only on
// (amortised) growth; reading each probed key through the ring is the
// price of the smaller slots (PERFORMANCE.md "Per-node footprint").
type SeenSet struct {
	tab   []uint32 // ring position + 1 of the id hashed here; 0 is free
	ring  []uint64 // packed ids, oldest at head
	mask  uint32
	cap   int32 // max remembered ids
	head  int32
	count int32
}

func packID(id pubsub.EventID) uint64 {
	return uint64(id.Publisher)<<32 | uint64(id.Seq)
}

// mix64 is the splitmix64 finaliser — a fast, well-distributed hash for
// packed ids.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSeenSet returns a set remembering at most capacity ids (clamped to
// [1, 2³¹−1]).
func NewSeenSet(capacity int) *SeenSet { return new(SeenSet).Init(capacity) }

// Init empties s in place, for a set held by value in its owner's record
// (the table and ring, which grow, are allocations of their own; the
// first Add makes both).
func (s *SeenSet) Init(capacity int) *SeenSet {
	*s = SeenSet{cap: int32(min(max(capacity, 1), math.MaxInt32))}
	return s
}

// initSlots sizes the first table for the ring's first 16 ids at load
// 1/2, so no peer pays a rehash at its 9th id: sim-huge's ten-round count
// window caught that step at every node the spread reached in it. It is
// made by the first Add, not by Init, so building a peer that has seen
// nothing costs no table (PERFORMANCE.md "The first H hops").
const initSlots = 32

// slot returns the table slot holding k or, when k is absent, the free
// slot that ends its probe chain.
func (s *SeenSet) slot(k uint64) (uint32, bool) {
	i := uint32(mix64(k)) & s.mask
	for {
		p := s.tab[i]
		if p == 0 {
			return i, false
		}
		if s.ring[p-1] == k {
			return i, true
		}
		i = (i + 1) & s.mask
	}
}

// grow rehashes into a table of n slots (a power of two).
func (s *SeenSet) grow(n int) {
	old := s.tab
	s.tab = make([]uint32, n)
	s.mask = uint32(n - 1)
	for _, p := range old {
		if p != 0 {
			i, _ := s.slot(s.ring[p-1])
			s.tab[i] = p
		}
	}
}

// remove deletes the id at ring position pos from the table using
// backward-shift deletion, keeping probe chains intact without tombstones.
func (s *SeenSet) remove(pos int32) {
	i, _ := s.slot(s.ring[pos])
	j := i
	for {
		j = (j + 1) & s.mask
		p := s.tab[j]
		if p == 0 {
			break
		}
		// p may fill the hole at i iff its home slot lies at or before i
		// along the probe path ending at j.
		if home := uint32(mix64(s.ring[p-1])) & s.mask; (j-home)&s.mask >= (j-i)&s.mask {
			s.tab[i] = p
			i = j
		}
	}
	s.tab[i] = 0
}

// Add inserts the id, reporting true if it was new.
func (s *SeenSet) Add(id pubsub.EventID) bool {
	k := packID(id)
	if s.tab == nil {
		s.grow(initSlots)
	}
	if _, ok := s.slot(k); ok {
		return false
	}
	pos := s.head
	if s.count == s.cap {
		// Full: the oldest id leaves, FIFO, and the new one takes its ring
		// position. The ring is cap long by now.
		s.remove(pos)
		if s.head++; s.head == s.cap {
			s.head = 0
		}
	} else {
		// Filling: nothing was evicted yet, so head is 0, the ids sit at
		// positions [0, count) and the ring grows without moving them.
		pos = s.count
		if int(pos) == len(s.ring) {
			ring := make([]uint64, min(max(2*len(s.ring), 16), int(s.cap)))
			copy(ring, s.ring)
			s.ring = ring
		}
		s.count++
		// Keep the probe load factor at or below 1/2.
		if 2*int(s.count) > len(s.tab) {
			s.grow(2 * len(s.tab))
		}
	}
	s.ring[pos] = k
	i, _ := s.slot(k)
	s.tab[i] = uint32(pos) + 1
	return true
}

// Contains reports whether the id is remembered.
func (s *SeenSet) Contains(id pubsub.EventID) bool {
	if s.count == 0 {
		return false // and there may be no table yet
	}
	_, ok := s.slot(packID(id))
	return ok
}

// Len returns the number of remembered ids.
func (s *SeenSet) Len() int { return int(s.count) }
