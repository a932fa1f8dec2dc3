package randutil

// SplitMix64 advances the splitmix64 generator once from state x and
// returns the mixed output. It is the standard seed-expansion step: a
// single multiply/xor-shift pipeline whose outputs are statistically
// independent for distinct inputs, which makes it the right tool for
// deriving many child seeds from one master seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardSeed derives the RNG seed for one shard of a sharded simulation
// from the run's master seed. Shard 0 keeps the master seed itself, so a
// one-shard run consumes exactly the random stream the single-threaded
// kernel always consumed (the shards=1 byte-identity guarantee); every
// other shard gets an independent splitmix64-derived stream, never a
// shared one — two shards drawing from a common *rand.Rand would race
// and destroy the per-(seed, shardCount) determinism contract.
func ShardSeed(seed int64, shard int) int64 {
	if shard == 0 {
		return seed
	}
	return int64(SplitMix64(uint64(seed) ^ (uint64(shard) * 0xd1342543de82ef95)))
}

// NodeSeed derives the seed of one simulated node's private stream from
// the run's master seed. The multiplier is odd, so distinct ids give
// distinct seeds; the derivation does not depend on the shard count, so
// a node draws the same stream wherever it lives.
func NodeSeed(seed int64, id int) int64 {
	return seed ^ int64(0x9e3779b9*uint32(id+1))
}
