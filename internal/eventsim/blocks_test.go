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

// A Timer whose slot lies in a later block stops exactly its own event.
func TestStopTimerInLaterBlock(t *testing.T) {
	s := New(1)
	fired := make([]bool, 2*blockLen+3)
	timers := make([]Timer, len(fired))
	for i := range fired {
		timers[i] = s.After(time.Duration(i)*time.Microsecond, func() { fired[i] = true })
	}
	victim := blockLen + blockLen/2
	if timers[victim].idx>>blockShift == 0 {
		t.Fatalf("victim slot %d is in the first block", timers[victim].idx)
	}
	if !timers[victim].Stop() {
		t.Fatal("Stop on a live timer in a later block reported false")
	}
	s.Run()
	for i, f := range fired {
		if f == (i == victim) {
			t.Fatalf("event %d fired = %v (victim %d)", i, f, victim)
		}
	}
}

// A stale handle stays inert after the arena adds a block: the slot it
// named is reused by a new event, and stopping the old handle must not
// touch it.
func TestStaleHandleInertAfterNewBlock(t *testing.T) {
	s := New(1)
	stale := s.After(time.Millisecond, func() {})
	s.Run() // fires; its slot returns to the free list
	fired := 0
	for i := 0; i < blockLen+1; i++ { // the first reuses the slot, the last needs a second block
		s.After(time.Millisecond, func() { fired++ })
	}
	if len(s.arena.blocks) < 2 {
		t.Fatalf("arena has %d blocks, want a second one", len(s.arena.blocks))
	}
	if stale.Stop() {
		t.Fatal("stale handle reported a successful stop")
	}
	s.Run()
	if fired != blockLen+1 {
		t.Fatalf("stale Stop killed a live event: %d of %d fired", fired, blockLen+1)
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
