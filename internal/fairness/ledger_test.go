package fairness

import (
	"math"
	"sync"
	"testing"
)

func TestContributionBenefitRatio(t *testing.T) {
	l := NewLedger(2, DefaultWeights())
	l.AddSend(0, ClassApp, 100)
	l.AddSend(0, ClassInfra, 50)
	l.AddPublish(0, 30)
	l.AddDelivery(0)
	l.AddDelivery(0)
	l.SetFilters(0, 3)

	if got := l.Contribution(0); got != 180 {
		t.Errorf("contribution = %v, want 180", got)
	}
	if got := l.Benefit(0); got != 5 {
		t.Errorf("benefit = %v, want 5 (2 delivered + 3 filters)", got)
	}
	if got := l.Ratio(0); got != 36 {
		t.Errorf("ratio = %v, want 36", got)
	}
	// Untouched process: zero everything, ratio 0.
	if got := l.Ratio(1); got != 0 {
		t.Errorf("idle ratio = %v, want 0", got)
	}
}

func TestZeroBenefitPositiveWork(t *testing.T) {
	l := NewLedger(1, DefaultWeights())
	l.AddSend(0, ClassApp, 500)
	// Benefit floored at 1: ratio equals the contribution.
	if got := l.Ratio(0); got != 500 {
		t.Errorf("unrequited ratio = %v, want 500", got)
	}
}

// TestWeightsVariants: the two accountings. Fig. 2's counts
// infrastructure bytes like application bytes and every active filter
// toward benefit (κ = 1); the audited one counts only the bytes
// receivers found novel, with the same benefit.
func TestWeightsVariants(t *testing.T) {
	for _, tc := range []struct {
		w       Weights
		contrib float64
	}{
		{DefaultWeights(), 200},
		{Weights{Audited: true}, 30},
	} {
		l := NewLedger(1, tc.w)
		l.AddSend(0, ClassApp, 100)
		l.AddSend(0, ClassInfra, 100)
		l.AddAudit(0, 30, 170)
		l.SetFilters(0, 10)
		l.AddDelivery(0)
		if got := l.Contribution(0); got != tc.contrib {
			t.Errorf("%+v: contribution = %v, want %v", tc.w, got, tc.contrib)
		}
		if got := l.Benefit(0); got != 11 {
			t.Errorf("%+v: benefit = %v, want 11 (1 delivery + 10 filters)", tc.w, got)
		}
	}
}

func TestAuditedContribution(t *testing.T) {
	w := Weights{Audited: true}
	l := NewLedger(1, w)
	l.AddSend(0, ClassApp, 1000) // raw bytes: ignored when audited
	l.AddAudit(0, 200, 800)
	l.AddPublish(0, 50)
	if got := l.Contribution(0); got != 250 {
		t.Errorf("audited contribution = %v, want 250 (200 useful + 50 published)", got)
	}
	a := l.Account(0)
	if a.JunkBytes != 800 {
		t.Errorf("junk = %d", a.JunkBytes)
	}
}

func TestChurnPenalty(t *testing.T) {
	l := NewLedger(1, DefaultWeights())
	l.AddChurnPenalty(0, 100)
	l.AddChurnPenalty(0, -5) // ignored
	if got := l.Contribution(0); got != 100 {
		t.Errorf("churn penalty contribution = %v, want 100", got)
	}
}

func TestInvalidIDsIgnored(t *testing.T) {
	l := NewLedger(1, DefaultWeights())
	l.AddSend(-1, ClassApp, 10)
	l.AddSend(5, ClassApp, 10)
	l.AddSend(0, Class(9), 10)
	l.AddDelivery(-1)
	l.AddPublish(99, 1)
	l.SetFilters(99, 1)
	l.AddAudit(99, 1, 1)
	if got := l.Contribution(0); got != 0 {
		t.Errorf("invalid ops leaked: %v", got)
	}
	if got := (l.Account(-3)); got != (Account{}) {
		t.Errorf("invalid account lookup: %+v", got)
	}
}

func TestGrow(t *testing.T) {
	l := NewLedger(1, DefaultWeights())
	l.Grow(5)
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	l.Grow(2) // shrink is a no-op
	if l.Len() != 5 {
		t.Fatalf("Len after no-op grow = %d", l.Len())
	}
	l.AddDelivery(4)
	if l.Benefit(4) != 1 {
		t.Fatal("grown account unusable")
	}
}

func TestZeroWeightsMeansDefaults(t *testing.T) {
	l := NewLedger(1, Weights{})
	if l.Weights() != DefaultWeights() {
		t.Fatalf("zero weights should be the defaults: %+v", l.Weights())
	}
	l.AddSend(0, ClassInfra, 400)
	l.SetFilters(0, 7)
	if c, b := l.Contribution(0), l.Benefit(0); c != 400 || b != 7 {
		t.Fatalf("zero weights: contribution %v, benefit %v, want Fig. 2's 400 and 7", c, b)
	}
}

func TestDelta(t *testing.T) {
	var a, b Account
	a.BytesSent[ClassApp] = 100
	b.BytesSent[ClassApp] = 40
	a.Delivered, b.Delivered = 10, 4
	a.Filters, b.Filters = 3, 2
	d := Delta(a, b)
	if d.BytesSent[ClassApp] != 60 || d.Delivered != 6 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if d.Filters != 3 {
		t.Fatalf("filters must carry the level, got %d", d.Filters)
	}
}

func TestReportFairVsUnfair(t *testing.T) {
	// Fair population: contribution proportional to benefit.
	fair := NewLedger(10, DefaultWeights())
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			fair.AddDelivery(i)
		}
		fair.AddSend(i, ClassApp, (i+1)*100)
	}
	fr := fair.Report()
	if fr.RatioJain < 0.98 {
		t.Errorf("fair population Jain = %.3f, want ≈1", fr.RatioJain)
	}
	if fr.ContribBenefitCorr < 0.95 {
		t.Errorf("fair population corr = %.3f, want ≈1", fr.ContribBenefitCorr)
	}

	// Unfair: everyone works the same while benefit is highly skewed
	// (the paper's classic-gossip pathology, §4.2).
	unfair := NewLedger(10, DefaultWeights())
	for i := 0; i < 10; i++ {
		unfair.AddSend(i, ClassApp, 100)
		for j := 0; j < i*i; j++ {
			unfair.AddDelivery(i)
		}
	}
	ur := unfair.Report()
	if ur.RatioJain > 0.5 {
		t.Errorf("unfair population Jain = %.3f, want low", ur.RatioJain)
	}
	if ur.WorkCoV > 0.01 {
		t.Errorf("work is balanced, CoV = %.3f", ur.WorkCoV)
	}
	if len(ur.String()) == 0 {
		t.Error("String() empty")
	}

	// Unrequited work: 9 of 10 processes forward without any benefit.
	unreq := NewLedger(10, DefaultWeights())
	for i := 0; i < 10; i++ {
		unreq.AddSend(i, ClassApp, 100)
	}
	for j := 0; j < 50; j++ {
		unreq.AddDelivery(0)
	}
	if got := unreq.Report().UnrequitedFrac; got < 0.85 || got > 0.95 {
		t.Errorf("unrequited fraction = %.2f, want 0.9", got)
	}
}

func TestReportSubsetAndEmpty(t *testing.T) {
	l := NewLedger(4, DefaultWeights())
	l.AddSend(0, ClassApp, 10)
	l.AddDelivery(0)
	l.AddSend(1, ClassApp, 1000)
	r := l.ReportFor([]int{0})
	if r.N != 1 {
		t.Fatalf("subset N = %d", r.N)
	}
	empty := l.ReportFor([]int{})
	if empty.N != 0 || empty.RatioJain != 1 {
		t.Fatalf("empty report: %+v", empty)
	}
	// Out-of-range ids are skipped.
	r2 := l.ReportFor([]int{0, 99, -1})
	if r2.N != 1 {
		t.Fatalf("invalid ids not skipped: N=%d", r2.N)
	}
}

func TestTopContributors(t *testing.T) {
	l := NewLedger(5, DefaultWeights())
	l.AddSend(2, ClassApp, 500)
	l.AddSend(4, ClassApp, 300)
	l.AddSend(0, ClassApp, 100)
	top := l.TopContributors(2)
	if len(top) != 2 || top[0] != 2 || top[1] != 4 {
		t.Fatalf("top = %v", top)
	}
	all := l.TopContributors(99)
	if len(all) != 5 {
		t.Fatalf("oversized k: %v", all)
	}
}

func TestLedgerConcurrentSafety(t *testing.T) {
	l := NewLedger(8, DefaultWeights())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.AddSend(g, ClassApp, 1)
				l.AddDelivery(g)
				_ = l.Ratio(g)
			}
		}()
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if got := l.Account(g).BytesSent[ClassApp]; got != 1000 {
			t.Fatalf("node %d lost updates: %d", g, got)
		}
	}
}

// Growing while writers hammer existing accounts must lose no updates:
// chunked storage means accounts never move.
func TestGrowConcurrentWithWriters(t *testing.T) {
	l := NewLedger(4, DefaultWeights())
	var wg sync.WaitGroup
	const perWriter = 5000
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.AddSend(g, ClassApp, 1)
				l.AddChurnPenalty(g, 1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 8; n <= 4096; n *= 2 {
			l.Grow(n)
			_ = l.Snapshot()
		}
	}()
	wg.Wait()
	if l.Len() != 4096 {
		t.Fatalf("Len = %d after growth", l.Len())
	}
	for g := 0; g < 4; g++ {
		a := l.Account(g)
		if a.BytesSent[ClassApp] != perWriter || a.ChurnPenalty != perWriter {
			t.Fatalf("node %d lost updates during growth: %+v", g, a)
		}
	}
}

// The per-message accounting path must not allocate: it runs once (or
// more) for every simulated message.
func TestAddPathZeroAlloc(t *testing.T) {
	l := NewLedger(16, DefaultWeights())
	avg := testing.AllocsPerRun(1000, func() {
		l.AddSend(3, ClassApp, 64)
		l.AddDelivery(5)
		l.AddPublish(7, 32)
		l.AddAudit(3, 48, 16)
	})
	if avg != 0 {
		t.Fatalf("ledger add path allocates %.2f times per op, want 0", avg)
	}
}

func BenchmarkAddSend(b *testing.B) {
	l := NewLedger(1024, DefaultWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AddSend(i&1023, ClassApp, 64)
	}
}

func BenchmarkAddSendParallel(b *testing.B) {
	l := NewLedger(1024, DefaultWeights())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := 0
		for pb.Next() {
			l.AddSend(id&1023, ClassApp, 64)
			id += 7
		}
	})
}

func TestRatioFinite(t *testing.T) {
	l := NewLedger(1, DefaultWeights())
	l.AddSend(0, ClassApp, 1<<40)
	r := l.Ratio(0)
	if math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatal("ratio must stay finite")
	}
}

// TestGrowRacingShardWriters is the sharded-simulation audit for Grow's
// memory ordering (see the Grow doc comment): shard-style writer
// goroutines hammer adds and reads over already-admitted ids while the
// main goroutine repeatedly grows the population. Under -race this
// verifies the chunks-before-size publication order and the
// copy-on-write chunk index leave no unsynchronised access; the final
// totals verify no admitted write was lost to a stale index.
func TestGrowRacingShardWriters(t *testing.T) {
	const (
		writers   = 4
		perWriter = 64 // ids each writer owns from the initial population
		adds      = 2000
		finalSize = 10 * ChunkSize
	)
	l := NewLedger(writers*perWriter, DefaultWeights())

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * perWriter
			for i := 0; i < adds; i++ {
				id := lo + i%perWriter
				l.AddSend(id, ClassApp, 8)
				l.AddAudit(id, 8, 0)
				l.AddDelivery(id)
				l.AddChurnPenalty(id, 0.5)
				_ = l.Account(id)
				if i%16 == 0 {
					_ = l.Ratio(id)
				}
			}
		}(w)
	}
	for n := writers*perWriter + 1; n <= finalSize; n += 97 {
		l.Grow(n)
	}
	l.Grow(finalSize)
	wg.Wait()

	if l.Len() != finalSize {
		t.Fatalf("Len = %d, want %d", l.Len(), finalSize)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			a := l.Account(w*perWriter + i)
			hits := adds / perWriter
			if i < adds%perWriter {
				hits++
			}
			want := uint64(hits * 8)
			if a.BytesSent[ClassApp] != want || a.UsefulBytes != want {
				t.Fatalf("id %d: bytes %d useful %d, want %d — a write raced Grow and was lost",
					w*perWriter+i, a.BytesSent[ClassApp], a.UsefulBytes, want)
			}
		}
	}
	// Freshly grown territory must read as zeroed live slots.
	if a := l.Account(finalSize - 1); a.BytesSent[ClassApp] != 0 {
		t.Fatalf("new account is dirty: %+v", a)
	}
}
