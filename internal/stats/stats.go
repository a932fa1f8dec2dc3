// Package stats provides the statistical machinery behind fairness
// reports: moments, quantiles, and the inequality indices the
// literature uses to quantify (un)fairness — Jain's fairness index, the
// Gini coefficient, the coefficient of variation, and Lorenz curves.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// CoV returns the coefficient of variation of xs (population std / mean),
// or 0 when the mean is 0 (by convention: an all-zero sample is perfectly
// even) or xs has fewer than two values. Mean and variance accumulate in
// one pass by Welford's recurrence.
func CoV(xs []float64) float64 {
	var mean, m2 float64
	for i, x := range xs {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	if mean == 0 || len(xs) < 2 {
		return 0
	}
	return math.Sqrt(m2/float64(len(xs))) / math.Abs(mean)
}

// JainIndex computes Jain's fairness index (Σx)² / (n·Σx²) over a sample
// of non-negative allocations. It lies in [1/n, 1]; 1 means perfectly
// equal. By convention an empty or all-zero sample is perfectly fair (1).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Gini computes the Gini coefficient of a sample of non-negative values:
// 0 means perfect equality, values approach 1 under extreme concentration.
// Negative inputs are clamped to 0. An empty or all-zero sample has
// Gini 0.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	ys := make([]float64, n)
	for i, x := range xs {
		if x < 0 {
			x = 0
		}
		ys[i] = x
	}
	sort.Float64s(ys)
	var cum, total float64
	for i, y := range ys {
		cum += float64(i+1) * y // weighted by rank
		total += y
	}
	if total == 0 {
		return 0
	}
	nf := float64(n)
	return (2*cum)/(nf*total) - (nf+1)/nf
}

// LorenzPoint is one point of a Lorenz curve: the poorest Pop fraction of
// the population holds the Share fraction of the total.
type LorenzPoint struct {
	Pop   float64
	Share float64
}

// Lorenz returns the Lorenz curve of xs evaluated at `points` evenly
// spaced population fractions (plus the origin). Inputs are treated as
// non-negative.
func Lorenz(xs []float64, points int) []LorenzPoint {
	if points < 1 {
		points = 1
	}
	n := len(xs)
	out := make([]LorenzPoint, 0, points+1)
	out = append(out, LorenzPoint{0, 0})
	if n == 0 {
		for i := 1; i <= points; i++ {
			p := float64(i) / float64(points)
			out = append(out, LorenzPoint{p, p})
		}
		return out
	}
	ys := make([]float64, n)
	for i, x := range xs {
		if x < 0 {
			x = 0
		}
		ys[i] = x
	}
	sort.Float64s(ys)
	total := Sum(ys)
	prefix := make([]float64, n+1)
	for i, y := range ys {
		prefix[i+1] = prefix[i] + y
	}
	for i := 1; i <= points; i++ {
		p := float64(i) / float64(points)
		share := p // equality line fallback when total == 0
		if total > 0 {
			pos := p * float64(n)
			k := int(math.Floor(pos))
			mass := prefix[k]
			if k < n {
				mass += (pos - float64(k)) * ys[k]
			}
			share = mass / total
		}
		out = append(out, LorenzPoint{p, share})
	}
	return out
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies and sorts internally;
// for repeated queries use Quantiles. Empty input yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return quantileSorted(ys, q)
}

// Quantiles returns the quantiles of xs at each q in qs, sorting once.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	for i, q := range qs {
		out[i] = quantileSorted(ys, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between paired
// samples xs and ys. It returns 0 when either sample is degenerate
// (fewer than two points or zero variance).
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
