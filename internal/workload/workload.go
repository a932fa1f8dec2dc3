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

// RageQuit is the unfairness-triggered churn policy of EXP-T5 (§1/§6):
// a node whose contribution/benefit ratio exceeds Threshold times the
// population median for Patience consecutive checks disconnects.
type RageQuit struct {
	Threshold float64 // e.g. 3: leave when 3× the median ratio
	Patience  int     // consecutive over-threshold checks before quitting

	strikes map[int]int
}

// NewRageQuit builds the policy with sane minimums.
func NewRageQuit(threshold float64, patience int) *RageQuit {
	if threshold < 1 {
		threshold = 1
	}
	if patience < 1 {
		patience = 1
	}
	return &RageQuit{Threshold: threshold, Patience: patience, strikes: make(map[int]int)}
}

// Check feeds the current per-node ratios (indexed by node ID, with
// median med) and returns the IDs that quit this round.
func (r *RageQuit) Check(ratios []float64, med float64, active func(int) bool) []int {
	if med <= 0 {
		med = 1
	}
	var quitters []int
	for id, ratio := range ratios {
		if active != nil && !active(id) {
			r.strikes[id] = 0
			continue
		}
		if ratio > r.Threshold*med {
			r.strikes[id]++
			if r.strikes[id] >= r.Patience {
				quitters = append(quitters, id)
				r.strikes[id] = 0
			}
		} else {
			r.strikes[id] = 0
		}
	}
	return quitters
}
