package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestCoVKnownValues(t *testing.T) {
	if got := CoV([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("cov = %v, want 0.4 (std 2 over mean 5)", got)
	}
	for _, xs := range [][]float64{nil, {3}, {0, 0, 0}} {
		if got := CoV(xs); got != 0 {
			t.Errorf("CoV(%v) = %v, want 0", xs, got)
		}
	}
}

func TestJainIndexKnownValues(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEq(got, 1, 1e-12) {
		t.Errorf("equal shares: %v, want 1", got)
	}
	// One holder of everything among n: index = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("single holder: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty: %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all zero: %v, want 1", got)
	}
}

func TestJainIndexScaleInvariant(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	a := JainIndex(xs)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * 37.5
	}
	if !almostEq(a, JainIndex(ys), 1e-12) {
		t.Fatal("Jain index must be scale invariant")
	}
}

func TestGiniKnownValues(t *testing.T) {
	if got := Gini([]float64{5, 5, 5, 5}); !almostEq(got, 0, 1e-12) {
		t.Errorf("equal: %v, want 0", got)
	}
	// Perfect concentration among n values → (n-1)/n.
	if got := Gini([]float64{0, 0, 0, 12}); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("concentrated: %v, want 0.75", got)
	}
	if got := Gini(nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	// Textbook example: {1,2,3,4,5} → Gini = 4/15.
	if got := Gini([]float64{1, 2, 3, 4, 5}); !almostEq(got, 4.0/15.0, 1e-12) {
		t.Errorf("1..5: %v, want %v", got, 4.0/15.0)
	}
}

func TestLorenzProperties(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	pts := Lorenz(xs, 10)
	if pts[0].Pop != 0 || pts[0].Share != 0 {
		t.Fatal("Lorenz must start at the origin")
	}
	last := pts[len(pts)-1]
	if !almostEq(last.Pop, 1, 1e-12) || !almostEq(last.Share, 1, 1e-12) {
		t.Fatalf("Lorenz must end at (1,1), got (%v,%v)", last.Pop, last.Share)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Share < pts[i-1].Share-1e-12 {
			t.Fatal("Lorenz must be non-decreasing")
		}
		if pts[i].Share > pts[i].Pop+1e-12 {
			t.Fatal("Lorenz must lie below the equality line")
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 15}, {1, 50}, {0.5, 35}, {0.25, 20}, {0.75, 40},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
	qs := Quantiles(xs, 0, 0.5, 1)
	if qs[0] != 15 || qs[1] != 35 || qs[2] != 50 {
		t.Errorf("Quantiles = %v", qs)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect positive: %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative: %v", got)
	}
	if got := Pearson(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("degenerate: %v", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("too short: %v", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5)  // underflow
	h.Add(100) // overflow
	if h.Count() != 12 {
		t.Fatalf("count = %d", h.Count())
	}
	med := h.Quantile(0.5)
	if med < 4 || med > 6 {
		t.Errorf("median approx = %v, want ≈5", med)
	}
	if h.Quantile(0) != 0 {
		t.Errorf("q0 = %v", h.Quantile(0))
	}
	if s := h.String(); len(s) == 0 {
		t.Error("String() should render something")
	}
}

func TestHistogramDegenerateArgs(t *testing.T) {
	h := NewHistogram(5, 5, 0) // coerced
	h.Add(5)
	if h.Count() != 1 {
		t.Fatal("coerced histogram must accept observations")
	}
}

// Property: Jain index stays within [1/n, 1] for non-negative samples.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gini stays within [0, 1) and is 0 for constant samples.
func TestQuickGiniBounds(t *testing.T) {
	f := func(raw []uint16, c uint16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		g := Gini(xs)
		if g < -1e-9 || g >= 1 {
			return false
		}
		if len(raw) > 0 {
			eq := make([]float64, len(raw))
			for i := range eq {
				eq[i] = float64(c)
			}
			if !almostEq(Gini(eq), 0, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var mn, mx float64 = math.MaxFloat64, -math.MaxFloat64
		for i, r := range raw {
			xs[i] = float64(r)
			mn = math.Min(mn, xs[i])
			mx = math.Max(mx, xs[i])
		}
		prev := -math.MaxFloat64
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := Quantile(xs, q)
			if v < prev-1e-9 || v < mn-1e-9 || v > mx+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is within [-1, 1].
func TestQuickPearsonBounds(t *testing.T) {
	f := func(a, b []int8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(a[i])
			ys[i] = float64(b[i])
		}
		p := Pearson(xs, ys)
		return p >= -1-1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGini(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gini(xs)
	}
}

func BenchmarkJainIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JainIndex(xs)
	}
}
