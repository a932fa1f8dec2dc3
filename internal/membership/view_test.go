package membership

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairgossip/internal/simnet"
)

func TestViewBasics(t *testing.T) {
	v := NewView(0, 3)
	if v.Cap() != 3 || v.Len() != 0 || v.Self() != 0 {
		t.Fatal("fresh view wrong")
	}
	if v.Add(0) {
		t.Fatal("view accepted self")
	}
	if !v.Add(1) || !v.Add(2) {
		t.Fatal("adds failed")
	}
	if v.Add(1) {
		t.Fatal("duplicate add with same age reported change")
	}
	if !v.Contains(1) || v.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if !v.Remove(1) || v.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
	if v.Add(-3) {
		t.Fatal("negative id accepted")
	}
}

func TestViewEvictsOldestWhenFull(t *testing.T) {
	v := NewView(0, 2)
	v.AddAged(Entry{ID: 1, Age: 5})
	v.AddAged(Entry{ID: 2, Age: 1})
	if !v.AddAged(Entry{ID: 3, Age: 0}) {
		t.Fatal("fresh entry should evict oldest")
	}
	if v.Contains(1) {
		t.Fatal("oldest entry not evicted")
	}
	if !v.Contains(2) || !v.Contains(3) {
		t.Fatal("wrong eviction victim")
	}
	// An entry staler than everything held is rejected.
	if v.AddAged(Entry{ID: 4, Age: 99}) {
		t.Fatal("stale entry accepted into full view")
	}
}

func TestViewDuplicateRefreshesAge(t *testing.T) {
	v := NewView(0, 2)
	v.AddAged(Entry{ID: 1, Age: 7})
	if !v.AddAged(Entry{ID: 1, Age: 2}) {
		t.Fatal("younger duplicate should refresh")
	}
	if e := v.Entries()[0]; e.Age != 2 {
		t.Fatalf("age = %d, want 2", e.Age)
	}
	if v.AddAged(Entry{ID: 1, Age: 9}) {
		t.Fatal("older duplicate should be ignored")
	}
}

func TestViewAgesAndOldest(t *testing.T) {
	v := NewView(0, 3)
	v.Add(1)
	v.IncrementAges()
	v.Add(2)
	got, ok := v.Oldest()
	if !ok || got.ID != 1 || got.Age != 1 {
		t.Fatalf("Oldest = %+v, %v", got, ok)
	}
	if _, ok := NewView(0, 1).Oldest(); ok {
		t.Fatal("empty view returned an oldest entry")
	}
}

func TestViewSample(t *testing.T) {
	v := NewView(0, 10)
	for i := 1; i <= 5; i++ {
		v.Add(simnet.NodeID(i))
	}
	rng := rand.New(rand.NewSource(1))
	got := v.Sample(rng, 3)
	if len(got) != 3 {
		t.Fatalf("sample size %d", len(got))
	}
	seen := map[simnet.NodeID]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatal("sample with replacement")
		}
		if id == 0 {
			t.Fatal("sampled self")
		}
		seen[id] = true
	}
	if len(v.Sample(rng, 99)) != 5 {
		t.Fatal("oversized k must clamp to view size")
	}
	if v.Sample(rng, 0) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestEntriesIsCopy(t *testing.T) {
	v := NewView(0, 3)
	v.Add(1)
	es := v.Entries()
	es[0].ID = 99
	if !v.Contains(1) || v.Contains(99) {
		t.Fatal("Entries must return a copy")
	}
}

func TestFullSampler(t *testing.T) {
	s := FullSampler{Self: 3, N: 10}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		got := s.SamplePeers(rng, 4)
		if len(got) != 4 {
			t.Fatalf("len %d", len(got))
		}
		seen := map[simnet.NodeID]bool{}
		for _, id := range got {
			if id == 3 {
				t.Fatal("sampled self")
			}
			if id < 0 || id >= 10 {
				t.Fatal("out of population")
			}
			if seen[id] {
				t.Fatal("duplicate")
			}
			seen[id] = true
		}
	}
	if got := s.SamplePeers(rng, 100); len(got) != 9 {
		t.Fatalf("oversized k: len %d, want 9", len(got))
	}
	if got := (FullSampler{Self: 0, N: 1}).SamplePeers(rng, 2); got != nil {
		t.Fatal("singleton population must sample nothing")
	}
}

// Property: a view never contains self or duplicates and never exceeds
// capacity, under arbitrary add/remove/age sequences.
func TestQuickViewInvariants(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		v := NewView(0, capacity)
		for _, op := range ops {
			id := simnet.NodeID(op % 16)
			switch (op / 16) % 4 {
			case 0:
				v.Add(id)
			case 1:
				v.AddAged(Entry{ID: id, Age: int(op % 7)})
			case 2:
				v.Remove(id)
			case 3:
				v.IncrementAges()
			}
			if v.Len() > capacity {
				return false
			}
			seen := map[simnet.NodeID]bool{}
			for _, e := range v.Entries() {
				if e.ID == 0 || seen[e.ID] {
					return false
				}
				seen[e.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: FullSampler is near-uniform over the population.
func TestFullSamplerUniformity(t *testing.T) {
	s := FullSampler{Self: 0, N: 20}
	rng := rand.New(rand.NewSource(4))
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, id := range s.SamplePeers(rng, 1) {
			counts[id]++
		}
	}
	// Expected ≈ 1052 per node (19 candidates). Allow generous ±20%.
	for id := 1; id < 20; id++ {
		if counts[id] < 800 || counts[id] > 1300 {
			t.Fatalf("node %d sampled %d times, expected ≈1052", id, counts[id])
		}
	}
	if counts[0] != 0 {
		t.Fatal("self sampled")
	}
}

// Regression: a suspect entry's age and suspicion must survive a shuffle
// round-trip. Before the failure detector landed, AddAged let any
// third-party re-offer refresh a duplicate's age downward; with
// suspicion that reset would erase the detector's evidence every time
// the dead address recirculated, and the entry would never be probed to
// eviction.
func TestSuspectSurvivesThirdPartyReoffer(t *testing.T) {
	v := NewView(0, 4)
	v.AddAged(Entry{ID: 7, Age: 9})
	v.MarkSuspect(7)
	// A third party re-offers the suspect with a fresh age: ignored.
	if v.AddAged(Entry{ID: 7, Age: 0}) {
		t.Fatal("AddAged refreshed a suspect entry")
	}
	if !v.Suspect(7) {
		t.Fatal("suspicion lost to a re-offer")
	}
	for _, e := range v.Entries() {
		if e.ID == 7 && e.Age != 9 {
			t.Fatalf("suspect age reset to %d, want frozen at 9", e.Age)
		}
	}
	// A second strike keeps it suspect.
	v.MarkSuspect(7)
	if !v.Suspect(7) {
		t.Fatal("a second MarkSuspect cleared the suspicion")
	}
	// Direct contact clears the suspicion and unfreezes the age.
	v.ClearSuspect(7)
	if v.Suspect(7) {
		t.Fatal("still suspect after ClearSuspect")
	}
	if !v.AddAged(Entry{ID: 7, Age: 0}) {
		t.Fatal("AddAged refused to refresh a cleared entry")
	}
}

// Suspicion bookkeeping must track removals and evictions: the parallel
// metadata may never outlive (or shift away from) its entry.
func TestSuspectClearedByRemoveAndEvict(t *testing.T) {
	v := NewView(0, 2)
	v.AddAged(Entry{ID: 1, Age: 5})
	v.AddAged(Entry{ID: 2, Age: 1})
	v.MarkSuspect(1)
	v.MarkSuspect(2)
	// Evicting the oldest (1, the suspect) overwrites its slot: the new
	// tenant must start trusted.
	if !v.AddAged(Entry{ID: 3, Age: 0}) {
		t.Fatal("eviction insert failed")
	}
	if v.Suspect(3) {
		t.Fatal("fresh entry inherited suspicion")
	}
	if v.Suspect(1) {
		t.Fatal("evicted entry still suspect")
	}
	// Remove must shift the metadata with the entries.
	v.Remove(3)
	if !v.Suspect(2) {
		t.Fatal("survivor's suspicion lost on Remove")
	}
	v.Remove(2)
	if v.Suspect(2) || v.Len() != 0 {
		t.Fatal("view not empty after removals")
	}
}

// The Into forms must make the draws and return the ids of the
// allocating forms, reuse a big-enough destination without allocating,
// and size a too-small one in a single allocation — which is all that
// Sample and SamplePeers, their nil-destination wrappers, cost.
func TestSampleIntoMatchesFresh(t *testing.T) {
	v := NewView(0, 32)
	for i := 1; i <= 20; i++ {
		v.Add(simnet.NodeID(i))
	}
	full := FullSampler{Self: 0, N: 1000}
	for _, tc := range []struct {
		name  string
		fresh func(*rand.Rand, int) []simnet.NodeID
		into  func(*rand.Rand, int, []simnet.NodeID) []simnet.NodeID
	}{
		{"view", v.Sample, v.SampleInto},
		{"full", full.SamplePeers, full.SamplePeersInto},
	} {
		r1, r2 := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
		var dst []simnet.NodeID
		for _, k := range []int{0, 1, 9, 3, 40, 9} {
			want := tc.fresh(r1, k)
			got := tc.into(r2, k, dst)
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: into %v, fresh %v", tc.name, k, got, want)
			}
			dst = got
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("%s: random streams diverged", tc.name)
		}
		if a := testing.AllocsPerRun(100, func() { dst = tc.into(r2, 9, dst) }); a != 0 {
			t.Errorf("%s: sampling into a big-enough destination allocates %v, want 0", tc.name, a)
		}
		if a := testing.AllocsPerRun(100, func() { tc.fresh(r2, 9) }); a != 1 {
			t.Errorf("%s: a fresh sample allocates %v, want 1", tc.name, a)
		}
	}
}
