package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairgossip/internal/pubsub"
)

func TestTopicsWeightsNormalised(t *testing.T) {
	tp := NewTopics(64, 1.01)
	var sum float64
	for i := 0; i < tp.Len(); i++ {
		sum += tp.Weight(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if tp.Weight(0) <= tp.Weight(63) {
		t.Fatal("Zipf weights must decrease with rank")
	}
	if tp.Names[0] != "topic-000" {
		t.Fatalf("name = %q", tp.Names[0])
	}
}

func TestTopicsSampleFollowsPopularity(t *testing.T) {
	tp := NewTopics(16, 1.2)
	rng := rand.New(rand.NewSource(1))
	counts := make(map[string]int)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[tp.Sample(rng)]++
	}
	got0 := float64(counts["topic-000"]) / trials
	if math.Abs(got0-tp.Weight(0)) > 0.02 {
		t.Fatalf("rank-0 frequency %.3f vs weight %.3f", got0, tp.Weight(0))
	}
	if counts["topic-000"] <= counts["topic-015"] {
		t.Fatal("popular topic sampled less than rare one")
	}
}

func TestTopicsUniformWhenSZero(t *testing.T) {
	tp := NewTopics(8, 0)
	for i := 1; i < 8; i++ {
		if math.Abs(tp.Weight(i)-tp.Weight(0)) > 1e-12 {
			t.Fatal("s=0 must be uniform")
		}
	}
}

func TestSampleSetDistinct(t *testing.T) {
	tp := NewTopics(16, 1.0)
	rng := rand.New(rand.NewSource(2))
	set := tp.SampleSet(rng, 8)
	if len(set) != 8 {
		t.Fatalf("len = %d", len(set))
	}
	seen := map[string]bool{}
	for _, s := range set {
		if seen[s] {
			t.Fatal("duplicate topic in set")
		}
		seen[s] = true
	}
	if got := tp.SampleSet(rng, 99); len(got) != 16 {
		t.Fatal("oversized k must clamp")
	}
	if tp.SampleSet(rng, 0) != nil {
		t.Fatal("k=0 must be nil")
	}
}

func TestSubCountBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	histo := make(map[int]int)
	for i := 0; i < 10000; i++ {
		n := SubCount(rng, 1, 16)
		if n < 1 || n > 16 {
			t.Fatalf("SubCount out of range: %d", n)
		}
		histo[n]++
	}
	// Geometric skew: 1 is the mode.
	if histo[1] <= histo[8] {
		t.Fatal("subscription counts not skewed toward small")
	}
	if SubCount(rng, 5, 2) != 5 {
		t.Fatal("inverted bounds must clamp to min")
	}
}

func TestStocksEventsAndSelectivity(t *testing.T) {
	s := NewStocks(10)
	rng := rand.New(rand.NewSource(4))
	for _, sel := range []float64{0.05, 0.25, 0.6} {
		f := s.FilterWithSelectivity(sel)
		matched := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			ev := &pubsub.Event{Topic: "ticks", Attrs: s.Event(rng)}
			if f.Match(ev) {
				matched++
			}
		}
		got := float64(matched) / trials
		if math.Abs(got-sel) > 0.03 {
			t.Fatalf("selectivity %.2f produced match rate %.3f", sel, got)
		}
	}
	// Degenerate selectivities clamp.
	if s.FilterWithSelectivity(-1) == nil || s.FilterWithSelectivity(2) == nil {
		t.Fatal("clamped filters must build")
	}
}

func TestStocksAttrsComplete(t *testing.T) {
	s := NewStocks(5)
	rng := rand.New(rand.NewSource(5))
	ev := &pubsub.Event{Topic: "ticks", Attrs: s.Event(rng)}
	for _, key := range []string{"symbol", "price", "volume", "region"} {
		if _, ok := ev.Attr(key); !ok {
			t.Fatalf("attribute %q missing", key)
		}
	}
}

func TestRageQuitPatience(t *testing.T) {
	rq := NewRageQuit(2, 3, 1)
	ratios := []float64{10, 1, 1, 1} // node 0 is 10× the median 1
	for round := 1; round <= 2; round++ {
		if q, _ := rq.Check(round, ratios, nil); len(q) != 0 {
			t.Fatalf("quit before patience exhausted (round %d): %v", round, q)
		}
	}
	q, _ := rq.Check(3, ratios, nil)
	if len(q) != 1 || q[0] != 0 {
		t.Fatalf("quitters = %v, want [0]", q)
	}
	// Strikes reset after quitting.
	if q, _ := rq.Check(4, ratios, nil); len(q) != 0 {
		t.Fatal("strike counter did not reset")
	}
}

func TestRageQuitRecoveryResetsStrikes(t *testing.T) {
	rq := NewRageQuit(2, 2, 1)
	hot := []float64{10, 1, 1}
	cool := []float64{1, 1, 1}
	rq.Check(1, hot, nil)
	rq.Check(2, cool, nil) // recovers
	if q, _ := rq.Check(3, hot, nil); len(q) != 0 {
		t.Fatal("strikes must reset after a calm check")
	}
}

func TestRageQuitSkipsInactive(t *testing.T) {
	rq := NewRageQuit(2, 1, 1)
	ratios := []float64{10, 10, 1, 1, 1}
	active := func(id int) bool { return id != 0 }
	q, _ := rq.Check(1, ratios, active)
	if len(q) != 1 || q[0] != 1 {
		t.Fatalf("quitters = %v, want [1]", q)
	}
}

func TestRageQuitZeroMedian(t *testing.T) {
	rq := NewRageQuit(2, 1, 1)
	// The median is 0, so node 0 is judged against Threshold×1 = 2.
	q, med := rq.Check(1, []float64{5, 0, 0}, nil)
	if len(q) != 1 || q[0] != 0 {
		t.Fatalf("zero median mishandled: %v", q)
	}
	if med != 0 {
		t.Fatalf("median = %v, want it returned unchanged as 0", med)
	}
	if q, _ := rq.Check(2, []float64{1.5, 0, 0}, nil); len(q) != 0 {
		t.Fatalf("1.5 is under Threshold×1 = 2, yet %v quit", q)
	}
}

// TestRageQuitChecksUpperMedian: the ratios are judged against their
// upper median (index len/2 of the sorted copy), which Check returns,
// and the caller's slice is left unsorted.
func TestRageQuitChecksUpperMedian(t *testing.T) {
	rq := NewRageQuit(2, 1, 1)
	ratios := []float64{10, 1, 1, 1}
	q, med := rq.Check(0, ratios, nil)
	if med != 1 {
		t.Fatalf("median = %v, want 1", med)
	}
	if len(q) != 1 || q[0] != 0 {
		t.Fatalf("quitters = %v, want [0]", q)
	}
	if ratios[0] != 10 {
		t.Fatalf("Check reordered the caller's ratios: %v", ratios)
	}
	// {1, 2, 3, 4}: the upper median is 3, so 6.5 > 2×3 quits and 6 does not.
	if _, med := rq.Check(1, []float64{4, 3, 2, 1}, nil); med != 3 {
		t.Fatalf("median of {4,3,2,1} = %v, want the upper median 3", med)
	}
	if q, _ := rq.Check(2, []float64{6.5, 3, 2, 1}, nil); len(q) != 1 || q[0] != 0 {
		t.Fatalf("quitters = %v, want [0]", q)
	}
	if q, _ := rq.Check(3, []float64{6, 3, 2, 1}, nil); len(q) != 0 {
		t.Fatalf("6 is not above 2×3, yet %v quit", q)
	}
}

// TestRageQuitRejoins: a quitter is due back exactly Down ticks after it
// quit — not earlier — and Rejoins hands each due id back once, in id
// order.
func TestRageQuitRejoins(t *testing.T) {
	rq := NewRageQuit(2, 1, 3)
	hot := func(ids ...int) []float64 {
		ratios := make([]float64, 16)
		for i := range ratios {
			ratios[i] = 1
		}
		for _, id := range ids {
			ratios[id] = 9
		}
		return ratios
	}
	if q, _ := rq.Check(5, hot(6, 5, 4, 3, 2, 1), nil); len(q) != 6 {
		t.Fatalf("quitters = %v, want [1 2 3 4 5 6]", q)
	}
	if q, _ := rq.Check(6, hot(0), nil); len(q) != 1 {
		t.Fatalf("quitters = %v, want [0]", q)
	}
	for now := 5; now < 8; now++ {
		if got := rq.Rejoins(now); len(got) != 0 {
			t.Fatalf("Rejoins(%d) = %v before anyone is due", now, got)
		}
	}
	if got := rq.Rejoins(8); !slices.Equal(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("Rejoins(8) = %v, want [1 2 3 4 5 6]", got)
	}
	if got := rq.Rejoins(8); len(got) != 0 {
		t.Fatalf("Rejoins(8) returned %v again", got)
	}
	if got := rq.Rejoins(100); !slices.Equal(got, []int{0}) {
		t.Fatalf("Rejoins(100) = %v, want [0]", got)
	}
	if got := rq.Rejoins(100); len(got) != 0 {
		t.Fatalf("Rejoins(100) returned %v again", got)
	}
}

// TestSampleDistinctCapsAtCandidates: over-asking returns what exists
// instead of rejection-sampling forever, so a repeated CrashFrac cannot
// hang a run.
func TestSampleDistinctCapsAtCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	down := map[int]bool{0: true, 1: true, 2: true}
	got := SampleDistinct(rng, 5, 5, func(id int) bool { return down[id] })
	if len(got) != 2 {
		t.Fatalf("got %v, want the 2 drawable candidates", got)
	}
	if out := SampleDistinct(rng, 4, 9, nil); len(out) != 4 {
		t.Fatalf("k>n returned %v, want all 4", out)
	}
	if out := SampleDistinct(rng, 3, 2, func(int) bool { return true }); out != nil {
		t.Fatalf("all-skipped returned %v, want nil", out)
	}
}
