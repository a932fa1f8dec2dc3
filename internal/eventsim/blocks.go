package eventsim

// blockShift sizes every block of a Blocks: 1 << blockShift elements.
const (
	blockShift = 10
	blockLen   = 1 << blockShift
)

// Blocks is a list of T grown in fixed-size blocks. Growing it adds a
// block and never copies or frees the earlier ones, so a list that swells
// in a burst costs what it holds, not what append's regrowth copies
// (about 1.25× a copy over 256 elements) — the simulator's kernel arena,
// cross-shard mailboxes and deferred audits all swell that way in a
// large run's warm-up. An element is named by its int32 index; Reset
// empties the list and keeps its blocks for the next fill.
type Blocks[T any] struct {
	blocks []*[blockLen]T
	n      int32
}

// Len returns the number of elements.
func (b *Blocks[T]) Len() int32 { return b.n }

// At returns element i, which stays where it is as the list grows.
func (b *Blocks[T]) At(i int32) *T { return &b.blocks[i>>blockShift][i&(blockLen-1)] }

// Push appends v, adding a block when the last one is full, and returns
// its index.
func (b *Blocks[T]) Push(v T) int32 {
	if int(b.n)>>blockShift == len(b.blocks) {
		b.blocks = append(b.blocks, new([blockLen]T))
	}
	i := b.n
	*b.At(i) = v
	b.n++
	return i
}

// Reset empties the list and keeps its blocks. Slots keep their old
// values until overwritten: a caller whose T holds pointers zeroes what it
// no longer needs.
func (b *Blocks[T]) Reset() { b.n = 0 }
