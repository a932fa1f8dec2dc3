// Package workload generates the synthetic workloads the experiments run:
// Zipf-distributed topic popularity, heterogeneous per-node subscription
// counts, content-based filters with controlled selectivity, publication
// schedules, and churn. Everything is driven by caller-supplied seeded
// RNGs, so experiments stay reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fairgossip/internal/pubsub"
)

// Topics is a set of K topics with Zipf(s) popularity over ranks: topic i
// (0-based rank) has weight 1/(i+1)^s.
type Topics struct {
	Names   []string
	weights []float64
	cum     []float64 // cumulative weights for sampling
}

// NewTopics builds K topics named "topic-000".. with Zipf exponent s
// (s=0 means uniform).
func NewTopics(k int, s float64) *Topics {
	if k < 1 {
		k = 1
	}
	t := &Topics{
		Names:   make([]string, k),
		weights: make([]float64, k),
		cum:     make([]float64, k),
	}
	var total float64
	for i := 0; i < k; i++ {
		t.Names[i] = fmt.Sprintf("topic-%03d", i)
		t.weights[i] = 1 / math.Pow(float64(i+1), s)
		total += t.weights[i]
	}
	var run float64
	for i := 0; i < k; i++ {
		t.weights[i] /= total
		run += t.weights[i]
		t.cum[i] = run
	}
	return t
}

// Len returns the number of topics.
func (t *Topics) Len() int { return len(t.Names) }

// Weight returns topic rank i's popularity (probabilities sum to 1).
func (t *Topics) Weight(i int) float64 { return t.weights[i] }

// Sample draws one topic by popularity.
func (t *Topics) Sample(rng *rand.Rand) string {
	u := rng.Float64()
	// Binary search over the cumulative distribution.
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return t.Names[lo]
}

// SampleSet draws k distinct topics by popularity (k clamped to Len).
func (t *Topics) SampleSet(rng *rand.Rand, k int) []string {
	if k > t.Len() {
		k = t.Len()
	}
	if k <= 0 {
		return nil
	}
	seen := make(map[string]struct{}, k)
	out := make([]string, 0, k)
	for len(out) < k {
		topic := t.Sample(rng)
		if _, dup := seen[topic]; dup {
			continue
		}
		seen[topic] = struct{}{}
		out = append(out, topic)
	}
	return out
}

// SubCount draws a per-node subscription count in [min, max] with a
// geometric-ish skew: most nodes subscribe to few topics, a tail to many
// (the heterogeneous-interest setting of the paper's fairness argument).
func SubCount(rng *rand.Rand, min, max int) int {
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	n := min
	for n < max && rng.Float64() < 0.5 {
		n++
	}
	return n
}

// --- Content-based workload ---------------------------------------------

// Stocks generates stock-tick events with typed attributes: symbol
// (Zipf-popular), price uniform in [0, PriceMax), volume, and region.
type Stocks struct {
	Symbols  []string
	symPop   *Topics
	PriceMax float64
	Regions  []string
}

// NewStocks builds a content workload over `symbols` ticker symbols.
func NewStocks(symbols int) *Stocks {
	if symbols < 1 {
		symbols = 1
	}
	s := &Stocks{
		Symbols:  make([]string, symbols),
		symPop:   NewTopics(symbols, 1.0),
		PriceMax: 1000,
		Regions:  []string{"us", "eu", "apac"},
	}
	for i := range s.Symbols {
		s.Symbols[i] = fmt.Sprintf("SYM%02d", i)
	}
	return s
}

// Event generates one tick's attributes.
func (s *Stocks) Event(rng *rand.Rand) []pubsub.Attr {
	rank := 0
	name := s.symPop.Sample(rng)
	fmt.Sscanf(name, "topic-%03d", &rank)
	return []pubsub.Attr{
		{Key: "symbol", Val: pubsub.String(s.Symbols[rank%len(s.Symbols)])},
		{Key: "price", Val: pubsub.Num(math.Floor(rng.Float64() * s.PriceMax))},
		{Key: "volume", Val: pubsub.Num(float64(100 * (1 + rng.Intn(1000))))},
		{Key: "region", Val: pubsub.String(s.Regions[rng.Intn(len(s.Regions))])},
	}
}

// FilterWithSelectivity returns a price-threshold filter matching
// approximately the given fraction of generated events (selectivity
// clamped into (0, 1]).
func (s *Stocks) FilterWithSelectivity(sel float64) pubsub.Filter {
	if sel <= 0 {
		sel = 0.001
	}
	if sel > 1 {
		sel = 1
	}
	threshold := s.PriceMax * (1 - sel)
	return pubsub.MustParse(fmt.Sprintf("price >= %g", threshold))
}

// SampleDistinct draws k distinct values from [0, n) using rng, skipping
// values for which skip returns true. k is capped at the number of
// drawable candidates, so over-asking (a second scenario.CrashFrac(0.6)
// when 60% are already down) returns what exists instead of
// rejection-sampling forever. The draws themselves happen exactly the way the experiments
// historically did — rejection sampling with rng.Intn — so refactored
// experiments keep their RNG streams (and fixed-seed outputs)
// bit-identical.
func SampleDistinct(rng *rand.Rand, n, k int, skip func(int) bool) []int {
	if k > n {
		k = n
	}
	if skip != nil {
		candidates := 0
		for id := 0; id < n; id++ {
			if !skip(id) {
				candidates++
			}
		}
		if k > candidates {
			k = candidates
		}
	}
	if k <= 0 {
		return nil
	}
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		id := rng.Intn(n)
		if picked[id] || (skip != nil && skip(id)) {
			continue
		}
		picked[id] = true
		out = append(out, id)
	}
	return out
}

// RageQuit is the paper's §1/§6 unfairness-churn feedback loop (EXP-T5,
// examples/churnstorm, the rage-quit scenario): a node whose
// contribution/benefit ratio exceeds Threshold times the population's
// upper median for Patience consecutive checks quits, and is due back
// Down ticks later. Callers own the clock and the order of their
// workload; RageQuit only keeps the strikes and the quitters' due ticks.
type RageQuit struct {
	Threshold float64 // e.g. 3: leave when 3× the median ratio
	Patience  int     // consecutive over-threshold checks before quitting
	Down      int     // ticks a quitter stays away

	strikes map[int]int
	due     map[int]int // quitter -> tick it rejoins
}

// NewRageQuit builds the policy with sane minimums.
func NewRageQuit(threshold float64, patience, down int) *RageQuit {
	if threshold < 1 {
		threshold = 1
	}
	if patience < 1 {
		patience = 1
	}
	return &RageQuit{Threshold: threshold, Patience: patience, Down: down,
		strikes: make(map[int]int), due: make(map[int]int)}
}

// Rejoins returns the quitters due back by now, in id order (not map
// order, so runs replay identically), and forgets them.
func (r *RageQuit) Rejoins(now int) []int {
	var ready []int
	for id, at := range r.due {
		if now >= at {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	for _, id := range ready {
		delete(r.due, id)
	}
	return ready
}

// Check judges the per-node ratios (indexed by node ID) against their
// upper median and returns the IDs that quit at tick now, each due back
// at now+Down, together with that median. A median ≤ 0 judges against
// Threshold×1. Inactive nodes (active may be nil) lose their strikes.
func (r *RageQuit) Check(now int, ratios []float64, active func(int) bool) (quit []int, med float64) {
	if len(ratios) > 0 {
		sorted := append([]float64(nil), ratios...)
		sort.Float64s(sorted)
		med = sorted[len(sorted)/2]
	}
	limit := r.Threshold * med
	if med <= 0 {
		limit = r.Threshold
	}
	for id, ratio := range ratios {
		if active != nil && !active(id) {
			r.strikes[id] = 0
			continue
		}
		if ratio > limit {
			r.strikes[id]++
			if r.strikes[id] >= r.Patience {
				quit = append(quit, id)
				r.strikes[id] = 0
				r.due[id] = now + r.Down
			}
		} else {
			r.strikes[id] = 0
		}
	}
	return quit, med
}
