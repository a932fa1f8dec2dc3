package randutil

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Stream is a rand.Rand over a 16-byte generator, for streams that exist
// once per simulated node: rand.NewSource's lagged Fibonacci generator
// carries 4.9 KB of state and some 1 900 multiplications of seeding,
// which at N = 100k was half the simulator's memory and most of its
// construction time. The generator is math/rand/v2's PCG, its state words
// SplitMix64(seed) and SplitMix64 of that, so nearby seeds (node ids)
// give unrelated streams. A Stream lives inside its owner's record (a
// peer) and its Rand points at its own source: seed it in place, never
// copy it. The stream for a seed is NOT rand.NewSource's: a fixed-seed
// run changes when a call site moves from one to the other.
type Stream struct {
	rand.Rand
	src pcgSource
}

// Seed (re)starts the stream from seed; a zero Stream is seeded first.
func (s *Stream) Seed(seed int64) {
	s.src.Seed(seed)
	s.Rand = *rand.New(&s.src)
}

// pcgSource adapts randv2.PCG to rand.Source64.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

func (s *pcgSource) Seed(seed int64) {
	hi := SplitMix64(uint64(seed))
	s.pcg.Seed(hi, SplitMix64(hi))
}
