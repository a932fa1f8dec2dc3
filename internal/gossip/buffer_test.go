package gossip

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairgossip/internal/pubsub"
)

func ev(pub, seq uint32) *pubsub.Event {
	return &pubsub.Event{ID: pubsub.EventID{Publisher: pub, Seq: seq}, Topic: "t"}
}

// pick is a selection into fresh storage.
func pick(b *Buffer, rng *rand.Rand, n int, policy Policy) []*pubsub.Event {
	var scratch []*pubsub.Event
	return b.SelectInto(rng, &scratch, n, policy)
}

func TestBufferInsertDedup(t *testing.T) {
	b := NewBuffer(4, 8)
	if !b.Insert(ev(1, 1)) {
		t.Fatal("first insert failed")
	}
	if b.Insert(ev(1, 1)) {
		t.Fatal("duplicate insert succeeded")
	}
	if b.Len() != 1 || !b.Contains(pubsub.EventID{Publisher: 1, Seq: 1}) {
		t.Fatal("buffer state wrong")
	}
}

func TestBufferCapacityEviction(t *testing.T) {
	b := NewBuffer(3, 100)
	for i := uint32(1); i <= 4; i++ {
		b.Insert(ev(1, i))
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	if b.Contains(pubsub.EventID{Publisher: 1, Seq: 1}) {
		t.Fatal("oldest entry should have been evicted")
	}
	if !b.Contains(pubsub.EventID{Publisher: 1, Seq: 4}) {
		t.Fatal("newest entry missing")
	}
}

func TestBufferAgeGC(t *testing.T) {
	b := NewBuffer(10, 3)
	b.Insert(ev(1, 1))
	b.Tick()
	b.Insert(ev(1, 2))
	b.Tick()
	b.Tick() // first event reaches age 3 and dies
	if b.Contains(pubsub.EventID{Publisher: 1, Seq: 1}) {
		t.Fatal("expired event still buffered")
	}
	if !b.Contains(pubsub.EventID{Publisher: 1, Seq: 2}) {
		t.Fatal("young event evicted early")
	}
}

func TestSelectPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	// Newest: returns the most recently inserted.
	b := NewBuffer(10, 100)
	for i := uint32(1); i <= 5; i++ {
		b.Insert(ev(1, i))
	}
	got := pick(b, rng, 2, PolicyNewest)
	if len(got) != 2 || got[0].ID.Seq != 4 || got[1].ID.Seq != 5 {
		t.Fatalf("newest picked %v", ids(got))
	}

	// LeastSent: previously sent events deprioritised.
	got = pick(b, rng, 2, PolicyLeastSent)
	for _, e := range got {
		if e.ID.Seq == 4 || e.ID.Seq == 5 {
			t.Fatalf("least-sent picked already-sent event %v", e.ID)
		}
	}

	// Random: correct count, distinct.
	got = pick(b, rng, 3, PolicyRandom)
	if len(got) != 3 {
		t.Fatalf("random picked %d", len(got))
	}
	seen := map[pubsub.EventID]bool{}
	for _, e := range got {
		if seen[e.ID] {
			t.Fatal("random selection repeated an event")
		}
		seen[e.ID] = true
	}

	// Oversized n clamps; zero/negative selects nothing.
	if len(pick(b, rng, 99, PolicyRandom)) != 5 {
		t.Fatal("oversized n must clamp")
	}
	if len(pick(b, rng, 0, PolicyRandom)) != 0 {
		t.Fatal("n=0 must select nothing")
	}
}

func TestSelectEmptyBuffer(t *testing.T) {
	b := NewBuffer(4, 4)
	if got := pick(b, rand.New(rand.NewSource(1)), 3, PolicyRandom); len(got) != 0 {
		t.Fatalf("empty buffer selected %v", got)
	}
	b.Tick() // must not panic on empty
}

// TestBufferFirstSend: FirstSend hands out a buffered event once, and
// only if nothing sent it before — not a selection, not a pull (Get) —
// and counts as its send for the least-sent policy.
func TestBufferFirstSend(t *testing.T) {
	b := NewBuffer(4, 8)
	fresh, selected, pulled := ev(1, 1), ev(1, 2), ev(1, 3)
	b.Insert(fresh)
	if got, ok := b.FirstSend(fresh.ID); !ok || got != fresh {
		t.Fatal("FirstSend refused a fresh event")
	}
	if _, ok := b.FirstSend(fresh.ID); ok {
		t.Fatal("FirstSend handed the same event out twice")
	}
	b.Insert(selected)
	b.Insert(pulled)
	b.Get(pulled.ID)
	if sel := pick(b, rand.New(rand.NewSource(1)), 1, PolicyLeastSent); len(sel) != 1 || sel[0] != selected {
		t.Fatalf("least-sent picked %v, want the one event never sent", sel)
	}
	for _, e := range []*pubsub.Event{selected, pulled, ev(9, 9)} {
		if _, ok := b.FirstSend(e.ID); ok {
			t.Fatalf("FirstSend handed out %v, which was sent before or is not buffered", e.ID)
		}
	}
}

func TestBufferGet(t *testing.T) {
	b := NewBuffer(4, 8)
	e := ev(1, 1)
	b.Insert(e)
	got, ok := b.Get(e.ID)
	if !ok || got != e {
		t.Fatal("Get failed")
	}
	if _, ok := b.Get(pubsub.EventID{Publisher: 9, Seq: 9}); ok {
		t.Fatal("Get returned missing event")
	}
	// Get counts as a send for the least-sent policy.
	b.Insert(ev(1, 2))
	sel := pick(b, rand.New(rand.NewSource(1)), 1, PolicyLeastSent)
	if len(sel) != 1 || sel[0].ID.Seq != 2 {
		t.Fatalf("least-sent should skip pulled event, picked %v", sel[0].ID)
	}
}

func TestSeenSetFIFO(t *testing.T) {
	s := NewSeenSet(2)
	idA := pubsub.EventID{Publisher: 1, Seq: 1}
	idB := pubsub.EventID{Publisher: 1, Seq: 2}
	idC := pubsub.EventID{Publisher: 1, Seq: 3}
	if !s.Add(idA) || !s.Add(idB) {
		t.Fatal("adds failed")
	}
	if s.Add(idA) {
		t.Fatal("duplicate add succeeded")
	}
	s.Add(idC) // evicts idA
	if s.Contains(idA) {
		t.Fatal("FIFO eviction failed")
	}
	if !s.Contains(idB) || !s.Contains(idC) {
		t.Fatal("wrong eviction victim")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

// Property: buffer never exceeds capacity, never holds duplicates, and
// Select never returns evicted or duplicate events.
func TestQuickBufferInvariants(t *testing.T) {
	f := func(ops []uint16, capRaw, ageRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		maxAge := int(ageRaw%8) + 1
		b := NewBuffer(capacity, maxAge)
		rng := rand.New(rand.NewSource(7))
		var scratch []*pubsub.Event
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				b.Insert(ev(1, uint32(op/4)))
			case 2:
				b.Tick()
			case 3:
				got := b.SelectInto(rng, &scratch, int(op%5), Policy(1+op%3))
				seen := map[pubsub.EventID]bool{}
				for _, e := range got {
					if seen[e.ID] || !b.Contains(e.ID) {
						return false
					}
					seen[e.ID] = true
				}
			}
			if b.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func ids(evs []*pubsub.Event) []pubsub.EventID {
	out := make([]pubsub.EventID, len(evs))
	for i, e := range evs {
		out[i] = e.ID
	}
	return out
}

func BenchmarkBufferInsertSelect(b *testing.B) {
	buf := NewBuffer(256, 8)
	rng := rand.New(rand.NewSource(1))
	var scratch []*pubsub.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Insert(ev(1, uint32(i)))
		buf.SelectInto(rng, &scratch, 8, PolicyRandom)
		if i%16 == 0 {
			buf.Tick()
		}
	}
}

// SelectInto must consume the random stream and pick the same events as
// the map oracle's Select, for every policy, while reusing the caller's
// scratch.
func TestSelectIntoMatchesSelect(t *testing.T) {
	for _, policy := range []Policy{PolicyRandom, PolicyNewest, PolicyLeastSent} {
		a := newMapBuffer(64, 8)
		b := NewBuffer(64, 8)
		for i := 0; i < 20; i++ {
			ev := &pubsub.Event{ID: pubsub.EventID{Publisher: 1, Seq: uint32(i + 1)}}
			a.Insert(ev)
			b.Insert(ev)
		}
		r1 := rand.New(rand.NewSource(9))
		r2 := rand.New(rand.NewSource(9))
		var scratch []*pubsub.Event
		for round := 0; round < 6; round++ {
			want := a.Select(r1, 5, policy)
			got := b.SelectInto(r2, &scratch, 5, policy)
			if len(want) != len(got) {
				t.Fatalf("policy %d round %d: len %d vs %d", policy, round, len(got), len(want))
			}
			for i := range want {
				if want[i].ID != got[i].ID {
					t.Fatalf("policy %d round %d pos %d: %v vs %v", policy, round, i, got[i].ID, want[i].ID)
				}
			}
			if r1.Int63() != r2.Int63() {
				t.Fatalf("policy %d: random streams diverged", policy)
			}
			r2.Int63() // re-sync after the probe draw above
			r1.Int63()
		}
	}
}

// TestSelectSplitIsSelectInto: the split picks what SelectInto picks,
// in the same order and from the same random draws, and sends an event by
// its id exactly when its record is at least lazyMinSize bytes — from
// its first round push, whether or not copies of it have come back — and
// a smaller one never; a nil lazy scratch splits nothing.
func TestSelectSplitIsSelectInto(t *testing.T) {
	big := func(seq uint32) *pubsub.Event {
		e := ev(1, seq)
		e.Payload = make([]byte, lazyMinSize-e.WireSize())
		return e
	}
	for _, policy := range []Policy{PolicyRandom, PolicyNewest, PolicyLeastSent} {
		a, b := NewBuffer(16, 100), NewBuffer(16, 100)
		for i := uint32(1); i <= 12; i++ {
			e := ev(1, i)
			if i%2 == 0 {
				e = big(i)
			}
			a.Insert(e)
			b.Insert(e)
			// Events 1–6 get returned copies; 7–12 none.
			for k := uint32(0); i <= 6 && k < i; k++ {
				a.Duplicate(e.ID, 64)
				b.Duplicate(e.ID, 64)
			}
		}
		r1, r2 := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
		var s1, s2 []*pubsub.Event
		var scratch []pubsub.EventID
		for round := 0; round < 6; round++ {
			want := a.SelectInto(r1, &s1, 7, policy)
			full, lazy := b.SelectSplit(r2, &s2, &scratch, 7, policy)
			rest, restLazy := full, lazy
			for _, e := range want {
				isBig := e.ID.Seq%2 == 0
				if isBig && len(restLazy) > 0 && restLazy[0] == e.ID {
					restLazy = restLazy[1:]
				} else if !isBig && len(rest) > 0 && rest[0] == e {
					rest = rest[1:]
				} else {
					t.Fatalf("policy %d round %d: split %v + lazy %v, SelectInto picked %v", policy, round, ids(full), lazy, ids(want))
				}
			}
			if len(rest)+len(restLazy) > 0 {
				t.Fatalf("policy %d round %d: split more than SelectInto picked", policy, round)
			}
			if r1.Int63() != r2.Int63() {
				t.Fatalf("policy %d: random streams diverged", policy)
			}
		}
		if got, _ := b.SelectSplit(r2, &s2, nil, 12, policy); len(got) != 12 {
			t.Fatalf("policy %d: a nil lazy scratch split %d of 12 events off", policy, 12-len(got))
		}
	}
}

func TestSelectIntoZeroAllocSteadyState(t *testing.T) {
	b := NewBuffer(64, 1024)
	for i := 0; i < 32; i++ {
		b.Insert(&pubsub.Event{ID: pubsub.EventID{Publisher: 2, Seq: uint32(i + 1)}})
	}
	rng := rand.New(rand.NewSource(3))
	scratch := make([]*pubsub.Event, 0, 8)
	b.SelectInto(rng, &scratch, 8, PolicyRandom) // warm the perm scratch
	allocs := testing.AllocsPerRun(100, func() {
		b.SelectInto(rng, &scratch, 8, PolicyRandom)
	})
	if allocs != 0 {
		t.Fatalf("SelectInto allocates %v per run, want 0", allocs)
	}
}

// mapBuffer is the map-backed Buffer this package shipped before the flat
// layout, kept as the differential oracle: a slab of entries indexed
// through an id map plus an `order` slice that the least-sent sort
// permutes in place — which is where "a capacity eviction removes the
// first entry in buffer order, not the oldest" comes from. It has since
// been taught one thing, the retirement rule (Duplicate), written out
// here with its own literal 2 so the oracle does not share the constant
// it checks.
type mapBuffer struct {
	cap, maxAge int
	slab        []mapEntry
	freeL       []int32
	items       map[pubsub.EventID]int32
	order       []pubsub.EventID
}

type mapEntry struct {
	ev              *pubsub.Event
	age, sent, dups int
}

func newMapBuffer(capacity, maxAge int) *mapBuffer {
	return &mapBuffer{cap: max(capacity, 1), maxAge: max(maxAge, 1), items: make(map[pubsub.EventID]int32)}
}

func (b *mapBuffer) Len() int { return len(b.items) }

func (b *mapBuffer) Contains(id pubsub.EventID) bool {
	_, ok := b.items[id]
	return ok
}

func (b *mapBuffer) Get(id pubsub.EventID) (*pubsub.Event, bool) {
	idx, ok := b.items[id]
	if !ok {
		return nil, false
	}
	b.slab[idx].sent++
	return b.slab[idx].ev, true
}

func (b *mapBuffer) release(id pubsub.EventID) {
	idx := b.items[id]
	delete(b.items, id)
	b.slab[idx] = mapEntry{}
	b.freeL = append(b.freeL, idx)
}

func (b *mapBuffer) Insert(ev *pubsub.Event) bool {
	if _, dup := b.items[ev.ID]; dup {
		return false
	}
	if len(b.items) >= b.cap {
		b.release(b.order[0])
		b.order = b.order[1:]
	}
	var idx int32
	if n := len(b.freeL); n > 0 {
		idx, b.freeL = b.freeL[n-1], b.freeL[:n-1]
	} else {
		b.slab = append(b.slab, mapEntry{})
		idx = int32(len(b.slab) - 1)
	}
	b.slab[idx] = mapEntry{ev: ev}
	b.items[ev.ID] = idx
	b.order = append(b.order, ev.ID)
	return true
}

func (b *mapBuffer) Duplicate(id pubsub.EventID, batch int) {
	idx, ok := b.items[id]
	if !ok {
		return
	}
	b.slab[idx].dups++
	if b.slab[idx].dups >= 2*batch {
		b.release(id)
		b.order = slices.DeleteFunc(b.order, func(o pubsub.EventID) bool { return o == id })
	}
}

func (b *mapBuffer) Tick() {
	live := b.order[:0]
	for _, id := range b.order {
		e := &b.slab[b.items[id]]
		e.age++
		if e.age >= b.maxAge {
			b.release(id)
			continue
		}
		live = append(live, id)
	}
	b.order = live
}

func (b *mapBuffer) Select(rng *rand.Rand, n int, policy Policy) []*pubsub.Event {
	n = min(n, len(b.items))
	if n <= 0 {
		return nil
	}
	ids := b.order
	switch policy {
	case PolicyNewest:
		ids = ids[len(ids)-n:]
	case PolicyLeastSent:
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && b.slab[b.items[ids[j]]].sent < b.slab[b.items[ids[j-1]]].sent; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		ids = ids[:n]
	default:
		picked := make([]pubsub.EventID, 0, n)
		for _, idx := range rng.Perm(len(ids))[:n] {
			picked = append(picked, ids[idx])
		}
		ids = picked
	}
	out := make([]*pubsub.Event, 0, n)
	for _, id := range ids {
		e := &b.slab[b.items[id]]
		e.sent++
		out = append(out, e.ev)
	}
	return out
}

// TestBufferMatchesMapOracle drives the flat Buffer and the map-backed
// oracle with the same seeded operation sequences — inserts from a small
// id space (so duplicates and re-insertions after eviction occur), ticks,
// selections under every policy with lock-stepped RNGs, Get, Contains,
// returned copies at batch levers 1–3 (so entries retire at 2, 4 and 6
// copies, and a lever that drops retires on the next one) — and demands
// identical return values, Len and RNG position after every step. Small
// capacities against a large id space force capacity evictions after
// least-sent reorders.
func TestBufferMatchesMapOracle(t *testing.T) {
	for _, capacity := range []int{1, 8, 256} {
		for _, policy := range []Policy{PolicyRandom, PolicyNewest, PolicyLeastSent, 0} {
			for seed := int64(1); seed <= 4; seed++ {
				ops := rand.New(rand.NewSource(seed))
				maxAge := 1 + ops.Intn(12)
				got, want := NewBuffer(capacity, maxAge), newMapBuffer(capacity, maxAge)
				r1, r2 := rand.New(rand.NewSource(seed+100)), rand.New(rand.NewSource(seed+100))
				idSpace := uint32(3 * capacity)
				var scratch []*pubsub.Event
				fail := func(step int, format string, args ...any) {
					t.Helper()
					t.Fatalf("cap %d age %d policy %d seed %d step %d: %s", capacity, maxAge, policy, seed, step, fmt.Sprintf(format, args...))
				}
				for step := 0; step < 4000; step++ {
					id := pubsub.EventID{Publisher: 1, Seq: ops.Uint32() % idSpace}
					switch op := ops.Intn(19); {
					case op < 9:
						e := &pubsub.Event{ID: id}
						if g, w := got.Insert(e), want.Insert(e); g != w {
							fail(step, "Insert(%v) = %v, oracle %v", id, g, w)
						}
					case op < 11:
						got.Tick()
						want.Tick()
					case op < 14:
						n := ops.Intn(capacity+3) - 1 // -1 and 0 included
						w := want.Select(r2, n, policy)
						var g []*pubsub.Event
						if op == 11 {
							var fresh []*pubsub.Event
							g = got.SelectInto(r1, &fresh, n, policy)
							if (g == nil) != (w == nil) {
								fail(step, "Select nil-ness: %v vs oracle %v", g == nil, w == nil)
							}
						} else {
							g = got.SelectInto(r1, &scratch, n, policy)
						}
						if len(g) != len(w) {
							fail(step, "Select(%d) returned %d events, oracle %d", n, len(g), len(w))
						}
						for i := range w {
							if g[i] != w[i] {
								fail(step, "Select(%d)[%d] = %v, oracle %v", n, i, g[i].ID, w[i].ID)
							}
						}
					case op < 15:
						ge, gok := got.Get(id)
						we, wok := want.Get(id)
						if ge != we || gok != wok {
							fail(step, "Get(%v) = %v,%v, oracle %v,%v", id, ge, gok, we, wok)
						}
					case op < 16:
						if g, w := got.Contains(id), want.Contains(id); g != w {
							fail(step, "Contains(%v) = %v, oracle %v", id, g, w)
						}
					default:
						batch := 1 + ops.Intn(3)
						got.Duplicate(id, batch)
						want.Duplicate(id, batch)
					}
					if got.Len() != want.Len() {
						fail(step, "Len = %d, oracle %d", got.Len(), want.Len())
					}
				}
				if r1.Int63() != r2.Int63() {
					fail(4000, "random streams diverged")
				}
				if g, w := got.IDs(), want.order; !slices.Equal(g, w) {
					fail(4000, "buffer order %v, oracle %v", g, w)
				}
			}
		}
	}
}

// TestDuplicateRetires table-tests the retirement rule's edges. Each case
// inserts events 1..3 in order, replays a script of returned copies
// against event 2, and names what must be left.
func TestDuplicateRetires(t *testing.T) {
	type dup struct{ seq, batch, times int }
	for _, tc := range []struct {
		name   string
		script []dup
		want   []uint32 // seqs left, in buffer order
	}{
		{"unknown id is a no-op", []dup{{9, 1, 5}}, []uint32{1, 2, 3}},
		{"one short of 2 × batch stays", []dup{{2, 8, 15}}, []uint32{1, 2, 3}},
		{"the 2 × batch-th copy retires, order kept", []dup{{2, 8, 16}}, []uint32{1, 3}},
		{"copies after retirement are no-ops", []dup{{2, 1, 2}, {2, 1, 5}}, []uint32{1, 3}},
		{"a lever that drops retires on the next copy", []dup{{2, 8, 4}, {2, 2, 1}}, []uint32{1, 3}},
		{"a lever that rises keeps the count but moves the bar", []dup{{2, 1, 1}, {2, 4, 6}}, []uint32{1, 2, 3}},
		{"counts are per entry", []dup{{1, 2, 3}, {3, 2, 3}, {2, 2, 3}}, []uint32{1, 2, 3}},
	} {
		b := NewBuffer(8, 100)
		for i := uint32(1); i <= 3; i++ {
			b.Insert(ev(1, i))
		}
		for _, d := range tc.script {
			for k := 0; k < d.times; k++ {
				b.Duplicate(pubsub.EventID{Publisher: 1, Seq: uint32(d.seq)}, d.batch)
			}
		}
		var got []uint32
		for _, id := range b.IDs() {
			got = append(got, id.Seq)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: buffer holds %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetiredEventStaysOut drives the receive path both runtimes share —
// seen-set first, then Insert for a first copy or Duplicate for a later
// one — and checks that a retired event is not buffered again by a later
// copy while its id is still in the SeenSet.
func TestRetiredEventStaysOut(t *testing.T) {
	b, seen := NewBuffer(8, 100), NewSeenSet(4)
	receive := func(e *pubsub.Event, batch int) {
		if !seen.Add(e.ID) {
			b.Duplicate(e.ID, batch)
			return
		}
		b.Insert(e)
	}
	e := ev(1, 1)
	for copies := 1; copies <= 3; copies++ { // the first copy and 2 × batch duplicates
		receive(e, 1)
	}
	if b.Contains(e.ID) {
		t.Fatal("event still buffered after 2 × batch duplicates")
	}
	for copies := 0; copies < 5; copies++ {
		receive(e, 1)
	}
	if b.Contains(e.ID) {
		t.Fatal("a later copy re-buffered a retired event whose id is still in the SeenSet")
	}
}

// TestEntryCountersSaturate: the 16-bit counters stop at their maximum
// rather than wrap — a wrapped sent would jump the least-sent queue, a
// wrapped dups would never retire.
func TestEntryCountersSaturate(t *testing.T) {
	b := NewBuffer(2, 100)
	e := ev(1, 1)
	b.Insert(e)
	for i := 0; i < math.MaxUint16+10; i++ {
		b.Get(e.ID)
		b.Duplicate(e.ID, math.MaxUint16) // 2 × batch is out of a 16-bit count's reach
	}
	if got := b.ents[0]; got.sent != math.MaxUint16 || got.dups != math.MaxUint16 {
		t.Fatalf("after %d bumps sent = %d, dups = %d, want both %d", math.MaxUint16+10, got.sent, got.dups, math.MaxUint16)
	}
}

// TestDuplicateZeroAlloc pins the duplicate path — it runs some thirty
// times per delivery — at zero allocations: a copy of a buffered event,
// a copy of one long gone, and the copy that retires (with the insert
// that puts the event back for the next run).
func TestDuplicateZeroAlloc(t *testing.T) {
	b := NewBuffer(32, 100)
	events := make([]*pubsub.Event, 16)
	for i := range events {
		events[i] = ev(1, uint32(i))
		b.Insert(events[i])
	}
	gone := pubsub.EventID{Publisher: 2, Seq: 1}
	allocs := testing.AllocsPerRun(200, func() {
		b.Duplicate(events[3].ID, math.MaxUint16)
		b.Duplicate(gone, 8)
		b.Duplicate(events[7].ID, 1)
		b.Duplicate(events[7].ID, 1) // retires
		b.Insert(events[7])
	})
	if allocs != 0 {
		t.Fatalf("the duplicate path allocates %v per run, want 0", allocs)
	}
}

// TestCapacityEvictionFollowsBufferOrder writes down the one semantic
// nobody had: a least-sent selection reorders the buffer, so the next
// capacity eviction takes the first entry in that order, not the oldest
// entry.
func TestCapacityEvictionFollowsBufferOrder(t *testing.T) {
	b := NewBuffer(4, 100)
	for i := uint32(1); i <= 4; i++ {
		b.Insert(ev(1, i))
		b.Tick() // distinct ages: event 1 is the oldest
	}
	rng := rand.New(rand.NewSource(1))
	pick(b, rng, 2, PolicyLeastSent) // sends 1 and 2
	pick(b, rng, 2, PolicyLeastSent) // sorts to 3 4 1 2, sends 3 and 4
	b.Insert(ev(1, 5))
	if !b.Contains(pubsub.EventID{Publisher: 1, Seq: 1}) || b.Contains(pubsub.EventID{Publisher: 1, Seq: 3}) {
		t.Fatalf("eviction after a least-sent reorder must take event 3 (first in buffer order), buffer holds %v", b.IDs())
	}
}

// TestBufferSteadyStateZeroAlloc pins a whole round — arrivals, a
// selection and the tick that expires as many entries as arrived — at
// zero allocations once the buffer has reached its steady occupancy,
// both when age and when capacity is what evicts.
func TestBufferSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		capacity, maxAge, arrivals int
	}{
		{"age-bound", 64, 8, 4},
		{"capacity-bound", 16, 8, 4},
	} {
		for _, policy := range []Policy{PolicyRandom, PolicyNewest, PolicyLeastSent} {
			b := NewBuffer(tc.capacity, tc.maxAge)
			rng := rand.New(rand.NewSource(5))
			scratch := make([]*pubsub.Event, 0, 8)
			events := make([]*pubsub.Event, 4096)
			for i := range events {
				events[i] = ev(3, uint32(i))
			}
			next := 0
			round := func() {
				for k := 0; k < tc.arrivals; k++ {
					b.Insert(events[next%len(events)])
					next++
				}
				b.SelectInto(rng, &scratch, 8, policy)
				b.Tick()
			}
			for r := 0; r < 4*tc.maxAge; r++ {
				round()
			}
			if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
				t.Errorf("%s, policy %d: a steady-state round allocates %v, want 0", tc.name, policy, allocs)
			}
		}
	}
}

// TestBufferWarmUpAllocatesOnce pins what a filling buffer costs: a new
// holder that gains an event a round up to bufStart, selecting a batch of
// eight from it every round, makes two allocations in all — its entries
// and its selection scratch — and not one per doubling, whose rounds on a
// cluster still warming up are the seed's to pick.
func TestBufferWarmUpAllocatesOnce(t *testing.T) {
	events := make([]*pubsub.Event, bufStart)
	for i := range events {
		events[i] = ev(4, uint32(i))
	}
	rng := rand.New(rand.NewSource(6))
	allocs := testing.AllocsPerRun(50, func() {
		b := Buffer{cap: 32, maxAge: 100} // NewBuffer's allocation is not the subject
		var scratch []*pubsub.Event
		for _, e := range events {
			b.Insert(e)
			b.SelectInto(rng, &scratch, 8, PolicyLeastSent)
			b.Tick()
		}
	})
	if allocs != 2 {
		t.Fatalf("filling a buffer to %d events allocates %v times, want 2", bufStart, allocs)
	}
}

// BenchmarkBufferRound is one gossip round of buffer work at a steady
// occupancy: the arrivals, a least-sent selection (the policy every bench
// workload runs, and the only one that sorts) and the tick that expires
// what arrived maxAge rounds ago. Occupancy is arrivals × maxAge. The
// plain cases leave capacity to spare, so only the tick evicts; "full"
// makes capacity the limit, so every arrival also pays an eviction;
// "archive" is the anti-entropy archive's round — four times the
// forwarding buffer's lifetime, never selected from — the one buffer in
// the tree that can hold a thousand events.
func BenchmarkBufferRound(b *testing.B) {
	for _, c := range []struct {
		name                              string
		capacity, maxAge, arrivals, batch int
	}{
		{"occ=8", 32, 8, 1, 8},    // sim-huge's buffer
		{"occ=16", 256, 16, 1, 8}, // sim-fair's
		{"occ=256", 512, 8, 32, 8},
		{"occ=256/full", 256, 16, 32, 8},
		{"occ=1024", 2048, 8, 128, 8},
		{"occ=1024/full", 1024, 16, 128, 8},
		{"occ=256/archive", 512, 32, 8, 0},
		{"occ=1024/archive", 2048, 32, 32, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := NewBuffer(c.capacity, c.maxAge)
			rng := rand.New(rand.NewSource(1))
			events := make([]*pubsub.Event, 8*c.capacity)
			for i := range events {
				events[i] = ev(1, uint32(i))
			}
			var scratch []*pubsub.Event
			next := 0
			round := func() {
				for k := 0; k < c.arrivals; k++ {
					buf.Insert(events[next%len(events)])
					next++
				}
				if c.batch > 0 {
					buf.SelectInto(rng, &scratch, c.batch, PolicyLeastSent)
				}
				buf.Tick()
			}
			for r := 0; r < 4*c.maxAge; r++ {
				round()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
