package gossip

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairgossip/internal/pubsub"
)

// TestSeenSetAllOnesID: the all-ones id is an id like any other. The wire
// decoder accepts it from any datagram, and a set that reported it seen
// before it ever was would neither deliver nor forward it.
func TestSeenSetAllOnesID(t *testing.T) {
	ones := pubsub.EventID{Publisher: math.MaxUint32, Seq: math.MaxUint32}
	s := NewSeenSet(4)
	if s.Contains(ones) {
		t.Fatal("a fresh set contains the all-ones id")
	}
	if !s.Add(ones) {
		t.Fatal("the all-ones id is not new to a fresh set")
	}
	if !s.Contains(ones) || s.Add(ones) {
		t.Fatal("the all-ones id is not remembered once added")
	}
	for seq := uint32(0); seq < 4; seq++ { // evict it
		s.Add(pubsub.EventID{Publisher: 1, Seq: seq})
	}
	if s.Contains(ones) || s.Len() != 4 {
		t.Fatalf("after four newer ids: contains all-ones %v, len %d", s.Contains(ones), s.Len())
	}
}

// TestSeenSetMatchesModel checks the set against a map and a FIFO slice
// after every Add, at every capacity from 1 to 70 — below, at and across
// the ring's growth steps (16, 32, 64) — on id sequences long enough to
// wrap the ring several times. Ids come from a small universe, so most
// Adds past the first few are duplicates, recent or long evicted.
func TestSeenSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for capacity := 1; capacity <= 70; capacity++ {
		universe := make([]pubsub.EventID, 2*capacity+3)
		for i := range universe {
			universe[i] = pubsub.EventID{Publisher: uint32(rng.Intn(4)), Seq: uint32(rng.Intn(1 << 20))}
		}
		universe[0] = pubsub.EventID{Publisher: math.MaxUint32, Seq: math.MaxUint32}
		s := NewSeenSet(capacity)
		in := map[pubsub.EventID]bool{}
		var fifo []pubsub.EventID
		for op := 0; op < 8*capacity+64; op++ {
			id := universe[rng.Intn(len(universe))]
			want := !in[id]
			if want {
				if len(fifo) == capacity {
					delete(in, fifo[0])
					fifo = fifo[1:]
				}
				in[id] = true
				fifo = append(fifo, id)
			}
			if got := s.Add(id); got != want {
				t.Fatalf("cap %d op %d: Add(%v) = %v, want %v", capacity, op, id, got, want)
			}
			if s.Len() != len(fifo) {
				t.Fatalf("cap %d op %d: Len = %d, want %d", capacity, op, s.Len(), len(fifo))
			}
			for _, u := range universe {
				if s.Contains(u) != in[u] {
					t.Fatalf("cap %d op %d: Contains(%v) = %v, want %v", capacity, op, u, !in[u], in[u])
				}
			}
		}
	}
}

// BenchmarkSeenSetAdd is the receive path's probe mix: one novel id and
// three recent duplicates per op, on a set already full, so every novel id
// also evicts. Capacity 64 is sim-huge's, 8192 the default.
func BenchmarkSeenSetAdd(b *testing.B) {
	for _, capacity := range []int{64, 8192} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			id := func(i int) pubsub.EventID { return pubsub.EventID{Publisher: uint32(i % 97), Seq: uint32(i)} }
			s := NewSeenSet(capacity)
			next := 0
			for ; next < 2*capacity; next++ {
				s.Add(id(next))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(id(next))
				s.Add(id(next - 1))
				s.Add(id(next - 2))
				s.Add(id(next - 3))
				next++
			}
		})
	}
}
