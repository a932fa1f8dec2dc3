package live

import (
	"sync"
	"testing"
	"time"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/wire"
)

// TestReceiveLedgerEquivalence feeds one recorded envelope sequence —
// all-novel, all-duplicate, mixed, and one whose *last* record is
// malformed — through peer.receive and checks the novelty audit, the
// malformed count and the delivered set against hand-computed values:
// the numbers a decoder that materialised every copy before dedup would
// book for the same bytes.
func TestReceiveLedgerEquivalence(t *testing.T) {
	c := mustCluster(t, Config{N: 4, Seed: 31})
	if _, ok := c.Subscribe(1, pubsub.Topic("t")); !ok {
		t.Fatal("subscribe failed")
	}
	var got []pubsub.EventID
	c.OnDeliver(1, func(ev *pubsub.Event) { got = append(got, ev.ID) })
	p := c.peerAt(1)

	// Record sizes by hand: 16 fixed bytes + topic + payload, and per
	// attribute 2 + key + 1 kind byte + the value (bool 1, num 8).
	e1 := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 1}, Topic: "t", Payload: []byte("aaaa")} // 16+1+4 = 21
	e2 := &pubsub.Event{ID: pubsub.EventID{Publisher: 0, Seq: 2}, Topic: "t",
		Attrs: []pubsub.Attr{{Key: "n", Val: pubsub.Num(2)}}} // 16+1 + (2+1+1+8) = 29
	e3 := &pubsub.Event{ID: pubsub.EventID{Publisher: 2, Seq: 1}, Topic: "other", Payload: []byte("bb")} // 16+5+2 = 23
	e4 := &pubsub.Event{ID: pubsub.EventID{Publisher: 3, Seq: 1}, Topic: "t"}                            // 16+1 = 17
	e5 := &pubsub.Event{ID: pubsub.EventID{Publisher: 3, Seq: 2}, Topic: "t",
		Attrs: []pubsub.Attr{{Key: "b", Val: pubsub.Bool(true)}}} // 16+1 + (2+1+1+1) = 22
	envelope := func(sender uint32, events ...*pubsub.Event) []byte {
		buf, err := wire.AppendEnvelope(nil, sender, events)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// e5's bool byte is the 5th byte from the end (the 4-byte payload
	// length follows it); 2 is neither false nor true.
	broken := envelope(3, e4, e5)
	broken[len(broken)-5] = 2

	p.receive(envelope(0, e1, e2)) // sender 0: 21+29 novel
	p.receive(envelope(2, e1, e2)) // sender 2: 21+29 duplicate
	p.receive(envelope(0, e2, e3)) // sender 0: 29 duplicate, 23 novel (no filter matches "other")
	p.receive(broken)              // rejected whole: e4 must not be marked seen
	p.receive(envelope(3, e4))     // sender 3: 17 novel — proof the broken envelope left no trace

	type audit struct{ useful, junk uint64 }
	want := map[int]audit{0: {21 + 29 + 23, 29}, 2: {0, 21 + 29}, 3: {17, 0}}
	for id, w := range want {
		a := c.Ledger().Account(id)
		if a.UsefulBytes != w.useful || a.JunkBytes != w.junk {
			t.Errorf("sender %d audited useful %d junk %d, want %d / %d", id, a.UsefulBytes, a.JunkBytes, w.useful, w.junk)
		}
	}
	if m := c.Traffic().Malformed; m != 1 {
		t.Errorf("malformed %d, want 1", m)
	}
	wantIDs := []pubsub.EventID{e1.ID, e2.ID, e4.ID}
	if len(got) != len(wantIDs) {
		t.Fatalf("delivered %v, want %v", got, wantIDs)
	}
	for i := range wantIDs {
		if got[i] != wantIDs[i] {
			t.Fatalf("delivered %v, want %v", got, wantIDs)
		}
	}
	if d := c.Ledger().Account(1).Delivered; d != 3 {
		t.Errorf("ledger counts %d deliveries, want 3", d)
	}
}

// TestReceiveDuplicatesZeroAlloc: on push gossip most received copies
// are duplicates (a median of 29 copies per event on the live-chan
// benchmark workload), so the path that drops one — scan, seen-set
// probes, audit charge — allocates nothing.
func TestReceiveDuplicatesZeroAlloc(t *testing.T) {
	c := mustCluster(t, Config{N: 4, Seed: 32})
	batch := make([]*pubsub.Event, 8)
	for i := range batch {
		batch[i] = &pubsub.Event{
			ID:      pubsub.EventID{Publisher: 0, Seq: uint32(i + 1)},
			Topic:   "topic.12",
			Attrs:   []pubsub.Attr{{Key: "price", Val: pubsub.Num(101.25)}, {Key: "symbol", Val: pubsub.String("ACME")}},
			Payload: make([]byte, 64),
		}
	}
	buf, err := wire.AppendEnvelope(nil, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	p := c.peerAt(1)
	p.receive(buf) // every event is novel once
	if avg := testing.AllocsPerRun(200, func() { p.receive(buf) }); avg != 0 {
		t.Fatalf("receiving an all-duplicate envelope allocates %.2f times, want 0", avg)
	}
	if a := c.Ledger().Account(0); a.UsefulBytes == 0 || a.JunkBytes < 200*a.UsefulBytes {
		t.Fatalf("audit did not see one novel pass and the duplicate passes: %+v", a)
	}
}

// TestNextTick: round deadlines sit on the grid due + k·period whatever
// the wake-up lateness, and a peer that fell behind resumes at the
// first grid point still ahead of it — it never gets a deadline in the
// past, which is what would replay the backlog.
func TestNextTick(t *testing.T) {
	const period = 10 * time.Millisecond
	t0 := time.Unix(1000, 0)
	cases := []struct {
		name string
		late time.Duration // now - due
		want time.Duration // next - due
	}{
		{"on time", 0, period},
		{"round took a while", 3 * time.Millisecond, period},
		{"almost a period late", period - time.Nanosecond, period},
		{"exactly a period late", period, period},
		{"just over a period late", period + time.Nanosecond, 2 * period},
		{"stalled 3.5 periods", 35 * time.Millisecond, 4 * period},
	}
	for _, tc := range cases {
		now := t0.Add(tc.late)
		got := nextTick(t0, now, period)
		if got.Sub(t0) != tc.want {
			t.Errorf("%s: next deadline at due+%v, want due+%v", tc.name, got.Sub(t0), tc.want)
		}
		if got.Before(now) {
			t.Errorf("%s: deadline %v before now", tc.name, now.Sub(got))
		}
	}
}

// TestLiveRoundCadence drives a started peer against the wall clock.
// While its goroutine is kept busy (so every tick is handled a little
// late), it still runs k ± 1 rounds over k periods — lateness must not
// accumulate into the period — and after the goroutine was stalled for
// several periods it runs one round, not the backlog.
//
// Load can only take rounds away (a starved goroutine skips ticks), so
// the upper bounds are asserted outright and the lower bound gets a few
// attempts.
func TestLiveRoundCadence(t *testing.T) {
	const period = 10 * time.Millisecond
	c := mustCluster(t, Config{N: 4, RoundPeriod: period, Seed: 33})
	c.Start()
	defer c.Stop()
	p := c.peerAt(0)
	// sample reads the round counter and the clock on the peer goroutine.
	sample := func() (rounds int, at time.Time) {
		if !c.do(0, func() { rounds, at = p.m.Rounds(), time.Now() }) {
			t.Fatal("cluster stopped")
		}
		return rounds, at
	}

	// The first tick is due a period plus the start jitter after Start.
	if !Eventually(2*time.Second, time.Millisecond, func() bool { r, _ := sample(); return r > 0 }) {
		t.Fatal("no first round")
	}

	// Occupy the peer with back-to-back 2ms commands: a tick that falls
	// due during one waits for it to finish.
	idle := make(chan struct{})
	var busy sync.WaitGroup
	busy.Add(1)
	go func() {
		defer busy.Done()
		for {
			select {
			case <-idle:
				return
			default:
				c.do(0, func() { time.Sleep(2 * time.Millisecond) })
			}
		}
	}()
	const k = 40
	onGrid := false
	for attempt := 0; attempt < 5 && !onGrid; attempt++ {
		r0, t0 := sample()
		time.Sleep(k * period)
		r1, t1 := sample()
		ran, elapsed := r1-r0, t1.Sub(t0)
		if hi := int(elapsed/period) + 1; ran > hi {
			t.Fatalf("%d rounds in %v: more than one per %v period", ran, elapsed, period)
		}
		onGrid = ran >= int(elapsed/period)-1
		if !onGrid {
			t.Logf("attempt %d: %d rounds in %v", attempt, ran, elapsed)
		}
	}
	close(idle)
	busy.Wait()
	if !onGrid {
		t.Fatalf("the round period drifts: fewer than k-1 rounds per k periods, five times over")
	}

	var r0 int
	var woke time.Time
	c.do(0, func() {
		r0 = p.m.Rounds()
		time.Sleep(4*period + period/2) // four or five ticks fall due while the goroutine is away
		woke = time.Now()
	})
	if !Eventually(2*time.Second, time.Millisecond, func() bool { r, _ := sample(); return r > r0 }) {
		t.Fatal("no round after the stall")
	}
	r1, t1 := sample()
	// One round for the stall, then the grid: at most one more per
	// period since the peer woke, plus one for where in the period it
	// woke. A replayed backlog would show four extra at once.
	if hi := 1 + int(t1.Sub(woke)/period) + 1; r1-r0 > hi {
		t.Fatalf("%d rounds within %v of a 4.5-period stall, want <= %d: lost ticks were replayed", r1-r0, t1.Sub(woke), hi)
	}
}
