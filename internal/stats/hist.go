package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-range linear histogram with overflow and underflow
// buckets. It supports approximate quantiles and compact ASCII rendering
// for experiment reports.
type Histogram struct {
	lo, hi  float64
	width   float64
	buckets []uint64
	under   uint64
	over    uint64
	count   uint64
}

// NewHistogram returns a histogram covering [lo, hi) with n equal-width
// buckets. It requires hi > lo and n ≥ 1; invalid arguments are coerced
// to a single bucket over [lo, lo+1).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{
		lo:      lo,
		hi:      hi,
		width:   (hi - lo) / float64(n),
		buckets: make([]uint64, n),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.count++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // float edge case at hi boundary
			i = len(h.buckets) - 1
		}
		h.buckets[i]++
	}
}

// Count returns the number of observations, including out-of-range ones.
func (h *Histogram) Count() uint64 { return h.count }

// Quantile returns an approximation of the q-quantile assuming uniform
// mass within each bucket. Underflow mass is treated as sitting at lo,
// overflow mass at hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	for i, b := range h.buckets {
		next := cum + float64(b)
		if target <= next && b > 0 {
			frac := (target - cum) / float64(b)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.hi
}

// String renders a compact ASCII bar chart, one line per non-empty bucket.
func (h *Histogram) String() string {
	var sb strings.Builder
	maxCount := uint64(1)
	for _, b := range h.buckets {
		if b > maxCount {
			maxCount = b
		}
	}
	if h.under > 0 {
		fmt.Fprintf(&sb, "%12s | %d\n", fmt.Sprintf("< %.3g", h.lo), h.under)
	}
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		lo := h.lo + float64(i)*h.width
		bar := strings.Repeat("#", int(math.Ceil(float64(b)/float64(maxCount)*40)))
		fmt.Fprintf(&sb, "%12s | %-40s %d\n", fmt.Sprintf("%.3g", lo), bar, b)
	}
	if h.over > 0 {
		fmt.Fprintf(&sb, "%12s | %d\n", fmt.Sprintf(">= %.3g", h.hi), h.over)
	}
	return sb.String()
}
