package eventsim

import (
	"testing"
	"time"
)

// Growing a Blocks adds a block and moves nothing: a pointer taken before
// the growth still reads its element, and Reset keeps the blocks.
func TestBlocksGrowWithoutMoving(t *testing.T) {
	var b Blocks[int]
	first := b.At(b.Push(7))
	for i := 1; i < 3*blockLen; i++ {
		if got := b.Push(i); got != int32(i) {
			t.Fatalf("Push returned index %d, want %d", got, i)
		}
	}
	if *first != 7 || first != b.At(0) || len(b.blocks) != 3 {
		t.Fatalf("element 0 moved or changed (%d) after growth to %d blocks", *first, len(b.blocks))
	}
	b.Reset()
	b.Push(1)
	if b.Len() != 1 || len(b.blocks) != 3 || first != b.At(0) {
		t.Fatalf("Reset dropped blocks: len %d, %d blocks", b.Len(), len(b.blocks))
	}
}

// More than one block of same-instant events fires in scheduling order.
func TestSameInstantFIFOAcrossBlocks(t *testing.T) {
	s := New(1)
	const n = 3*blockLen + 5
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	if len(order) != n {
		t.Fatalf("fired %d of %d events", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("event %d fired in position %d", v, i)
		}
	}
}
