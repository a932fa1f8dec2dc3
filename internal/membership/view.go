// Package membership implements the peer-sampling substrate that gossip
// dissemination assumes (§4.2 of the paper, citing lpbcast, Cyclon and the
// peer-sampling service): bounded partial views with entry ages, uniform
// sampling, and the Cyclon view-shuffling protocol logic.
//
// The package provides protocol *logic*; the embedding node drives actual
// message exchange so that shuffle traffic is accounted like any other
// infrastructure traffic.
package membership

import (
	"math/rand"

	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
)

// Entry is a view slot: a peer and the age (in shuffle periods) since the
// information about it was created.
type Entry struct {
	ID  simnet.NodeID
	Age int
}

// View is a bounded partial view of the system, the node's local
// knowledge of "communication partners". The zero value is unusable; call
// NewView.
type View struct {
	self    simnet.NodeID
	cap     int
	entries []Entry
	// suspect is parallel to entries: whether the owner's failure
	// detector holds evidence against the entry (it counts the strikes).
	// While an entry is suspect its age is frozen — a third-party
	// re-offer must not make a possibly-dead address look fresh again,
	// or the failure detector's evidence silently resets every time the
	// address recirculates.
	suspect []bool
	nSusp   int   // count of suspect entries, so the hot path can skip scans
	perm    []int // scratch for Sample permutations
}

// NewView returns an empty view for node self holding at most capacity
// entries (minimum 1).
func NewView(self simnet.NodeID, capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	return &View{
		self:    self,
		cap:     capacity,
		entries: make([]Entry, 0, capacity),
		suspect: make([]bool, 0, capacity),
	}
}

// Self returns the owning node.
func (v *View) Self() simnet.NodeID { return v.self }

// Len returns the number of entries currently held.
func (v *View) Len() int { return len(v.entries) }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.cap }

// Contains reports whether id is in the view.
func (v *View) Contains(id simnet.NodeID) bool { return v.indexOf(id) >= 0 }

func (v *View) indexOf(id simnet.NodeID) int {
	for i, e := range v.entries {
		if e.ID == id {
			return i
		}
	}
	return -1
}

// Add inserts a fresh entry (age 0) for id. Self and duplicates are
// ignored (a duplicate refreshes the age to the younger of the two). When
// full, the oldest entry is evicted. It reports whether the view changed.
func (v *View) Add(id simnet.NodeID) bool { return v.AddAged(Entry{ID: id}) }

// AddAged inserts an entry preserving its age, with Add's rules. A
// duplicate of a suspect entry is ignored outright: neither the age nor
// the suspicion changes until the owner hears from the peer directly
// (ClearSuspect) or evicts it.
func (v *View) AddAged(e Entry) bool {
	if e.ID == v.self || e.ID < 0 {
		return false
	}
	if i := v.indexOf(e.ID); i >= 0 {
		if v.suspect[i] {
			return false // suspicion freezes the recorded age
		}
		if e.Age < v.entries[i].Age {
			v.entries[i].Age = e.Age
			return true
		}
		return false
	}
	if len(v.entries) < v.cap {
		v.entries = append(v.entries, e)
		v.suspect = append(v.suspect, false)
		return true
	}
	// Evict the oldest to make room; ties broken by slot order.
	oldest := 0
	for i := 1; i < len(v.entries); i++ {
		if v.entries[i].Age > v.entries[oldest].Age {
			oldest = i
		}
	}
	if v.entries[oldest].Age < e.Age {
		return false // incoming entry is staler than everything held
	}
	v.entries[oldest] = e
	v.clearSuspectSlot(oldest)
	return true
}

// Remove deletes id from the view, reporting whether it was present.
func (v *View) Remove(id simnet.NodeID) bool {
	i := v.indexOf(id)
	if i < 0 {
		return false
	}
	v.clearSuspectSlot(i)
	v.entries = append(v.entries[:i], v.entries[i+1:]...)
	v.suspect = append(v.suspect[:i], v.suspect[i+1:]...)
	return true
}

// MarkSuspect freezes id's age until ClearSuspect or eviction (a no-op
// when id is not in the view).
func (v *View) MarkSuspect(id simnet.NodeID) {
	if i := v.indexOf(id); i >= 0 && !v.suspect[i] {
		v.suspect[i] = true
		v.nSusp++
	}
}

// ClearSuspect erases any suspicion against id — direct contact proved
// it alive. It is a cheap no-op while nothing is suspect.
func (v *View) ClearSuspect(id simnet.NodeID) {
	if v.nSusp == 0 {
		return
	}
	if i := v.indexOf(id); i >= 0 {
		v.clearSuspectSlot(i)
	}
}

// Suspect reports whether id is in the view with its age frozen.
func (v *View) Suspect(id simnet.NodeID) bool {
	if v.nSusp == 0 {
		return false
	}
	i := v.indexOf(id)
	return i >= 0 && v.suspect[i]
}

func (v *View) clearSuspectSlot(i int) {
	if v.suspect[i] {
		v.suspect[i] = false
		v.nSusp--
	}
}

// IncrementAges ages every entry by one period.
func (v *View) IncrementAges() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// Oldest returns the entry with the highest age.
func (v *View) Oldest() (Entry, bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	oldest := 0
	for i := 1; i < len(v.entries); i++ {
		if v.entries[i].Age > v.entries[oldest].Age {
			oldest = i
		}
	}
	return v.entries[oldest], true
}

// Entries returns a copy of the view's entries.
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// IDs returns the peers currently in the view.
func (v *View) IDs() []simnet.NodeID {
	out := make([]simnet.NodeID, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.ID
	}
	return out
}

// Sample returns min(k, Len) distinct peers drawn uniformly without
// replacement using rng, in a fresh slice.
func (v *View) Sample(rng *rand.Rand, k int) []simnet.NodeID {
	return v.SampleInto(rng, k, nil)
}

// SampleInto is Sample drawing into dst's backing array (replaced by one
// of the right size when too small) — the per-round partner selection of
// both runtimes, which must not allocate in steady state. It makes
// exactly the draws Sample makes; an empty sample is dst[:0].
func (v *View) SampleInto(rng *rand.Rand, k int, dst []simnet.NodeID) []simnet.NodeID {
	n := len(v.entries)
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst[:0]
	}
	perm := randutil.PermInto(rng, &v.perm, n)
	dst = sized(dst, k)
	for i := 0; i < k; i++ {
		dst = append(dst, v.entries[perm[i]].ID)
	}
	return dst
}

// sized empties dst, replacing it when it cannot hold k ids. (Not
// slices.Grow: its single allocation is a compiler optimisation the race
// detector's build does not make, and the alloc pins run there too.)
func sized(dst []simnet.NodeID, k int) []simnet.NodeID {
	if cap(dst) < k {
		return make([]simnet.NodeID, 0, k)
	}
	return dst[:0]
}

// FullSampler samples uniformly from the complete population [0, N),
// excluding Self — the idealised "full knowledge" sampler classic gossip
// analysis assumes.
type FullSampler struct {
	Self simnet.NodeID
	N    int
}

// SamplePeers is SamplePeersInto a fresh slice.
func (s FullSampler) SamplePeers(rng *rand.Rand, k int) []simnet.NodeID {
	return s.SamplePeersInto(rng, k, nil)
}

// SamplePeersInto is SamplePeers drawing into dst's backing array, on
// SampleInto's terms.
func (s FullSampler) SamplePeersInto(rng *rand.Rand, k int, dst []simnet.NodeID) []simnet.NodeID {
	pop := s.N
	if s.Self >= 0 && int(s.Self) < s.N {
		pop--
	}
	if k > pop {
		k = pop
	}
	if k <= 0 {
		return dst[:0]
	}
	out := sized(dst, k)
draw:
	for len(out) < k {
		id := simnet.NodeID(rng.Intn(s.N))
		if id == s.Self {
			continue
		}
		// k is a fanout (single digits): a linear dup scan beats a map.
		for _, prev := range out {
			if prev == id {
				continue draw
			}
		}
		out = append(out, id)
	}
	return out
}
