// Package randutil provides allocation-free counterparts of math/rand
// helpers for simulation hot paths.
//
// Determinism contract: every function consumes the random stream
// draw-for-draw identically to the math/rand function it replaces, so
// swapping one in never changes the outcome of a fixed-seed run — only
// its allocation profile.
package randutil

import "math/rand"

// PermInto writes the permutation rand.Perm(n) would produce into
// *scratch, growing it only when n exceeds its capacity, and returns the
// filled slice. It performs the same Intn(i+1) draw for every i in [0,n)
// as rand.Perm (including the redundant i=0 draw that Go 1 compatibility
// pins), so the consumed random stream and the resulting permutation are
// bit-identical. TestPermIntoZeroAlloc pins the steady state at zero
// allocations.
func PermInto(rng *rand.Rand, scratch *[]int, n int) []int {
	p := (*scratch)[:0]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p = append(p, 0)
		p[i] = p[j]
		p[j] = i
	}
	*scratch = p
	return p
}
