package randutil

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// NewStream returns a *rand.Rand over a 16-byte generator, for streams
// that exist once per simulated node: rand.NewSource's additive lagged
// Fibonacci generator carries 607 words (4.9 KB) of state and spends
// some 1 900 multiplications seeding them, which at N = 100k was half the
// simulator's memory and most of its construction time. The generator is
// math/rand/v2's PCG behind math/rand's Source64, its state words
// SplitMix64(seed) and SplitMix64 of that, so nearby seeds (node ids)
// give unrelated streams. The type stays *rand.Rand: PermInto and every
// sampler take it as they take any other.
//
// The stream for a given seed is NOT rand.NewSource's: a fixed-seed run
// changes when a call site moves from one to the other.
func NewStream(seed int64) *rand.Rand {
	s := new(pcgSource)
	s.Seed(seed)
	return rand.New(s)
}

// pcgSource adapts randv2.PCG to rand.Source64.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

func (s *pcgSource) Seed(seed int64) {
	hi := SplitMix64(uint64(seed))
	s.pcg.Seed(hi, SplitMix64(hi))
}
