package adaptive

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{
		TargetRatio: 10, // contribution should be 10× benefit
		Limits:      Limits{FanoutMin: 2, FanoutMax: 16, BatchMin: 1, BatchMax: 32},
	}
}

func TestStatic(t *testing.T) {
	s := Static{F: 5, N: 8}
	for i := 0; i < 10; i++ {
		f, n := s.Update(Sample{Benefit: float64(i), Contribution: 1e9})
		if f != 5 || n != 8 {
			t.Fatalf("static moved: %d %d", f, n)
		}
	}
	if s.Fanout() != 5 || s.Batch() != 8 {
		t.Fatal("accessors wrong")
	}
}

func TestDefaultLimits(t *testing.T) {
	l := DefaultLimits(1024)
	if l.FanoutMin != 7 { // ceil(ln 1024) = ceil(6.93)
		t.Fatalf("FanoutMin = %d, want 7", l.FanoutMin)
	}
	if l.FanoutMax != 28 || l.BatchMin != 1 || l.BatchMax != 64 {
		t.Fatalf("limits = %+v", l)
	}
	if DefaultLimits(1).FanoutMin != 1 {
		t.Fatal("tiny population floor")
	}
}

func TestAIMDDirections(t *testing.T) {
	a := NewAIMD(cfg(), LeverFanout, 8, 4)
	// Over-contributing: contribution 200 vs desired 10×10=100.
	f0 := a.Fanout()
	f1, _ := a.Update(Sample{Benefit: 10, Contribution: 200})
	if f1 >= f0 {
		t.Fatalf("over-contribution must cut fanout: %d -> %d", f0, f1)
	}
	// Under-contributing: climbs back by +1.
	f2, _ := a.Update(Sample{Benefit: 10, Contribution: 10})
	if f2 != f1+1 {
		t.Fatalf("additive increase expected: %d -> %d", f1, f2)
	}
	// Inside deadband: no movement.
	f3, _ := a.Update(Sample{Benefit: 10, Contribution: 100})
	if f3 != f2 {
		t.Fatalf("deadband violated: %d -> %d", f2, f3)
	}
}

func TestAIMDClamping(t *testing.T) {
	a := NewAIMD(cfg(), LeverFanout, 100, 100)
	if a.Fanout() != 16 || a.Batch() != 32 {
		t.Fatalf("initial clamp failed: %d %d", a.Fanout(), a.Batch())
	}
	for i := 0; i < 50; i++ {
		a.Update(Sample{Benefit: 0, Contribution: 1000}) // always over
	}
	if a.Fanout() != 2 {
		t.Fatalf("fanout must pin at min, got %d", a.Fanout())
	}
	for i := 0; i < 50; i++ {
		a.Update(Sample{Benefit: 1000, Contribution: 0}) // always under
	}
	if a.Fanout() != 16 {
		t.Fatalf("fanout must pin at max, got %d", a.Fanout())
	}
}

func TestAIMDBatchFirstThenFanout(t *testing.T) {
	a := NewAIMD(cfg(), LeverBoth, 8, 16)
	// Persistent over-contribution must drain the batch to its minimum
	// before touching the fanout.
	sawBatchMinBeforeFanoutMove := false
	f0 := a.Fanout()
	for i := 0; i < 60; i++ {
		f, n := a.Update(Sample{Benefit: 1, Contribution: 1e6})
		if f != f0 && n != 1 {
			t.Fatalf("fanout moved while batch=%d > min", n)
		}
		if n == 1 && f == f0 {
			sawBatchMinBeforeFanoutMove = true
		}
	}
	if !sawBatchMinBeforeFanoutMove {
		t.Fatal("batch never reached its minimum")
	}
	if a.Fanout() != 2 || a.Batch() != 1 {
		t.Fatalf("both levers should bottom out: F=%d N=%d", a.Fanout(), a.Batch())
	}
	// Recovery grows the batch first.
	_, n := a.Update(Sample{Benefit: 1000, Contribution: 0})
	if n != 2 || a.Fanout() != 2 {
		t.Fatalf("recovery should grow batch first: F=%d N=%d", a.Fanout(), n)
	}
}

// plant simulates the gossip cost model: contribution per window =
// fanout × batch × eventSize, benefit constant.
func runPlant(t *testing.T, c Controller, benefit float64, windows int) (f, n int) {
	t.Helper()
	const eventSize = 10
	f, n = c.Fanout(), c.Batch()
	for i := 0; i < windows; i++ {
		contribution := float64(f*n) * eventSize
		f, n = c.Update(Sample{Benefit: benefit, Contribution: contribution})
	}
	return f, n
}

func TestAIMDConvergesOnPlant(t *testing.T) {
	// Target: contribution = 10×benefit = 10×40 = 400 bytes/window
	// → fanout×batch = 40.
	a := NewAIMD(cfg(), LeverBoth, 16, 32)
	f, n := runPlant(t, a, 40, 200)
	got := float64(f * n * 10)
	if got < 250 || got > 600 {
		t.Fatalf("AIMD did not settle near 400: F=%d N=%d (contribution %v)", f, n, got)
	}
}

func TestProportionalConvergesOnPlant(t *testing.T) {
	p := NewProportional(cfg(), LeverBoth, 16, 32)
	f, n := runPlant(t, p, 40, 60)
	got := float64(f * n * 10)
	if got < 300 || got > 520 {
		t.Fatalf("P-controller did not settle near 400: F=%d N=%d (%v)", f, n, got)
	}
}

func TestProportionalFasterThanAIMDFromFar(t *testing.T) {
	// Both start far above target; count windows until within 25%.
	target := 400.0
	within := func(c Controller) int {
		f, n := c.Fanout(), c.Batch()
		for i := 0; i < 500; i++ {
			contribution := float64(f * n * 10)
			if math.Abs(contribution-target) <= 0.25*target {
				return i
			}
			f, n = c.Update(Sample{Benefit: 40, Contribution: contribution})
		}
		return 500
	}
	aimd := within(NewAIMD(cfg(), LeverBoth, 16, 32))
	prop := within(NewProportional(cfg(), LeverBoth, 16, 32))
	if prop > aimd {
		t.Fatalf("proportional (%d windows) slower than AIMD (%d windows)", prop, aimd)
	}
}

func TestProportionalZeroContributionRampsUp(t *testing.T) {
	p := NewProportional(cfg(), LeverFanout, 2, 1)
	f0 := p.Fanout()
	f1, _ := p.Update(Sample{Benefit: 100, Contribution: 0})
	if f1 <= f0 {
		t.Fatalf("zero contribution with benefit must ramp up: %d -> %d", f0, f1)
	}
}

func TestZeroBenefitShedsTowardFloor(t *testing.T) {
	for _, c := range []Controller{
		NewAIMD(cfg(), LeverBoth, 16, 32),
		NewProportional(cfg(), LeverBoth, 16, 32),
	} {
		for i := 0; i < 100; i++ {
			c.Update(Sample{Benefit: 0, Contribution: 100})
		}
		if c.Fanout() != 2 || c.Batch() != 1 {
			t.Fatalf("%T: zero benefit should shed to minimum, F=%d N=%d", c, c.Fanout(), c.Batch())
		}
	}
}

func TestLeverSelectionRespected(t *testing.T) {
	a := NewAIMD(cfg(), LeverBatch, 8, 16)
	for i := 0; i < 30; i++ {
		a.Update(Sample{Benefit: 0, Contribution: 1e6})
	}
	if a.Fanout() != 8 {
		t.Fatalf("LeverBatch moved the fanout to %d", a.Fanout())
	}
	if a.Batch() != 1 {
		t.Fatalf("batch should bottom out, got %d", a.Batch())
	}

	p := NewProportional(cfg(), LeverFanout, 8, 16)
	for i := 0; i < 30; i++ {
		p.Update(Sample{Benefit: 0, Contribution: 1e6})
	}
	if p.Batch() != 16 {
		t.Fatalf("LeverFanout moved the batch to %d", p.Batch())
	}
}

func TestInvalidLeverDefaultsToBoth(t *testing.T) {
	a := NewAIMD(cfg(), Lever(99), 8, 16)
	for i := 0; i < 80; i++ {
		a.Update(Sample{Benefit: 0, Contribution: 1e6})
	}
	if a.Fanout() != 2 || a.Batch() != 1 {
		t.Fatal("invalid lever should behave like LeverBoth")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{TargetRatio: 1, Limits: Limits{FanoutMin: 5, FanoutMax: 2, BatchMin: 4, BatchMax: 1}}.withDefaults()
	if c.Gain != 0.5 || c.Beta != 0.7 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.FanoutMax != 5 || c.BatchMax != 4 {
		t.Fatalf("inverted limits not repaired: %+v", c)
	}
}

// Property: controller outputs always stay within limits, for arbitrary
// sample streams.
func TestQuickLeversWithinLimits(t *testing.T) {
	f := func(seed int64, samples []struct{ B, C uint16 }) bool {
		ctrls := []Controller{
			NewAIMD(cfg(), LeverBoth, 8, 8),
			NewAIMD(cfg(), LeverFanout, 8, 8),
			NewProportional(cfg(), LeverBoth, 8, 8),
			NewProportional(cfg(), LeverBatch, 8, 8),
		}
		for _, s := range samples {
			for _, c := range ctrls {
				f, n := c.Update(Sample{Benefit: float64(s.B), Contribution: float64(s.C)})
				if f < 2 || f > 16 || n < 1 || n > 32 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAIMDUpdate(b *testing.B) {
	a := NewAIMD(cfg(), LeverBoth, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Update(Sample{Benefit: float64(i % 50), Contribution: float64((i * 37) % 1000)})
	}
}
