package randutil

import (
	"math/rand"
	"testing"
)

// PermInto must consume the random stream and produce permutations
// bit-identically to rand.Perm, for every size, including repeated reuse
// of one scratch buffer — over math/rand's own source and over
// NewStream's.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for name, source := range map[string]func(int64) *rand.Rand{
		"NewSource": func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) },
		"NewStream": NewStream,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := source(42), source(42)
			var scratch []int
			for n := 0; n < 50; n++ {
				want := a.Perm(n)
				got := PermInto(b, &scratch, n)
				if len(got) != len(want) {
					t.Fatalf("n=%d: len %d, want %d", n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d: perm diverges at %d: %v vs %v", n, i, got, want)
					}
				}
			}
			// The streams must remain in lockstep after all those draws.
			if a.Int63() != b.Int63() {
				t.Fatal("random streams diverged")
			}
		})
	}
}

func TestPermIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scratch := make([]int, 0, 64)
	avg := testing.AllocsPerRun(200, func() {
		PermInto(rng, &scratch, 64)
	})
	if avg != 0 {
		t.Fatalf("PermInto allocates %.2f times per op, want 0", avg)
	}
}
