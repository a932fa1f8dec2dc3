package randutil

import (
	"math/rand"
	"testing"
	"unsafe"
)

// NewStream returns a freshly seeded Stream's *rand.Rand.
func NewStream(seed int64) *rand.Rand {
	s := new(Stream)
	s.Seed(seed)
	return &s.Rand
}

// The per-node streams of a whole simulated population must be usable
// as independent generators from their very first draw, which is where
// a weak seeding procedure shows: over the seeds the simulator derives
// for ids 0…99 999 at cluster seeds 1 and 2, the first 64-bit outputs
// are pairwise distinct (across both clusters), and each cluster's first
// Intn(16) draws — the partner pick of every node's first round — are
// uniform by a chi-square test at the 0.1 % level (15 degrees of
// freedom, critical value 37.70; the inputs are fixed, so the statistic
// is too: this cannot flake).
func TestStreamsIndependentAcrossNodeSeeds(t *testing.T) {
	const n, chi2Crit = 100000, 37.70
	first := make(map[uint64]int64, 2*n)
	for _, cluster := range []int64{1, 2} {
		var bins [16]float64
		for id := 0; id < n; id++ {
			seed := NodeSeed(cluster, id)
			u := NewStream(seed).Uint64()
			if prev, dup := first[u]; dup {
				t.Fatalf("seeds %d and %d (cluster seed %d, id %d) open with the same output", prev, seed, cluster, id)
			}
			first[u] = seed
			bins[NewStream(seed).Intn(16)]++
		}
		chi2 := 0.0
		for _, got := range bins {
			d := got - n/16.0
			chi2 += d * d / (n / 16.0)
		}
		t.Logf("cluster seed %d: chi-square of first Intn(16) over %d streams = %.2f", cluster, n, chi2)
		if chi2 > chi2Crit {
			t.Errorf("cluster seed %d: first Intn(16) draws are not uniform: chi-square %.2f > %.2f, bins %v", cluster, chi2, chi2Crit, bins)
		}
	}
}

func TestNewStreamIsAFunctionOfItsSeed(t *testing.T) {
	a, b, other := NewStream(7), NewStream(7), NewStream(8)
	same := true
	for i := 0; i < 1000; i++ {
		x := a.Int63()
		if y := b.Int63(); x != y {
			t.Fatalf("draw %d: two NewStream(7) disagree: %d vs %d", i, x, y)
		}
		same = same && x == other.Int63()
	}
	if same {
		t.Fatal("NewStream(7) and NewStream(8) produce the same sequence")
	}
	a.Seed(7)
	if got, want := a.Uint64(), NewStream(7).Uint64(); got != want {
		t.Fatalf("Seed(7) did not restart the stream: %d vs %d", got, want)
	}
}

// The point of Stream is its size; a generator swap that grows it
// again should have to say so here.
func TestStreamStateIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(pcgSource{}); got != 16 {
		t.Fatalf("per-node generator state is %d bytes, want 16", got)
	}
}
