package main

import (
	"math/rand"
	"sort"

	"fairgossip/internal/workload"
)

// The inputs are stratified: the spec fixes the shape of the input — how
// many nodes hold k subscriptions, how many subscribers each topic has,
// the subscription table up to a relabelling of the nodes, how often
// each topic is published — and the seed decides identities and order:
// which node plays which row of the table, which subscriber publishes,
// which event comes first (and, inside the system, every random choice
// the cluster seed drives). Two seeds therefore offer the system the
// same amount of work, and a metric differs between them only as far as
// the system's behaviour does. (Drawing the shape itself from the seed
// moved deliveries per round by ±7 % and the Jain index by ±25 % between
// seeds on sim-fair, and a freshly dealt table still moved the Jain
// index of the 48-peer live clusters by ±20 %: no bound could have
// absorbed either.)

// topicInputs is the seed-derived subscription table of one run.
type topicInputs struct {
	names    []string
	weights  []float64
	mask     []uint64  // per node: bit t set when subscribed to topic t
	members  [][]int32 // per topic: its subscribers
	measured [][]int32 // members minus the first `skip` nodes (live churners)
}

// quotas splits total into integer shares proportional to weights by
// largest remainder, so the shares sum to total exactly.
func quotas(weights []float64, total int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	left := total
	for i, w := range weights {
		exact := w / sum * float64(total)
		out[i] = int(exact)
		left -= out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < left; k++ {
		out[rems[k].i]++
	}
	return out
}

// tableSeed deals the subscription table; the run's seed relabels it.
const tableSeed = 20070625

// genTopicInputs deals subscriptions to n nodes over Zipf(s) topics.
// Node demand follows workload.SubCount's law exactly (half the nodes
// hold subMin subscriptions, a quarter one more, ... the rest subMax);
// topic t is subscribed by its Zipf share of the total demand. Topics
// are dealt most popular first to nodes drawn without replacement with
// probability proportional to their unmet demand. The first skip nodes
// (the live churners) are dealt a table of their own, so the rest see
// the same shape whatever skip is, and the seed permutes each group's
// identities.
func genTopicInputs(n, topics int, s float64, subMin, subMax, skip int, seed int64) topicInputs {
	tp := workload.NewTopics(topics, s)
	in := topicInputs{names: tp.Names, weights: make([]float64, topics), mask: make([]uint64, n),
		members: make([][]int32, topics), measured: make([][]int32, topics)}
	for t := range in.weights {
		in.weights[t] = tp.Weight(t)
	}
	relabel := rand.New(rand.NewSource(seed))
	for _, g := range [2][2]int{{skip, n}, {0, skip}} {
		lo, size := g[0], g[1]-g[0]
		if size == 0 {
			continue
		}
		perm := relabel.Perm(size)
		for row, mask := range dealTable(size, in.weights, subMin, subMax) {
			node := lo + perm[row]
			in.mask[node] = mask
			for t := range in.members {
				if mask>>uint(t)&1 == 1 {
					in.members[t] = append(in.members[t], int32(node))
					if node >= skip {
						in.measured[t] = append(in.measured[t], int32(node))
					}
				}
			}
		}
	}
	return in
}

// dealTable returns one topic bitmask per row for n rows.
func dealTable(n int, weights []float64, subMin, subMax int) []uint64 {
	rng := rand.New(rand.NewSource(tableSeed))
	masks := make([]uint64, n)
	law := make([]float64, subMax-subMin+1)
	p := 1.0
	for k := range law {
		p /= 2
		law[k] = p
	}
	law[len(law)-1] *= 2 // the tail's mass: SubCount stops at subMax
	demand := make([]int, 0, n)
	for k, c := range quotas(law, n) {
		for ; c > 0; c-- {
			demand = append(demand, subMin+k)
		}
	}
	total := 0
	for _, d := range demand {
		total += d
	}

	type cand struct {
		node int
		key  float64
	}
	cands := make([]cand, 0, n)
	for t, q := range quotas(weights, total) {
		cands = cands[:0]
		for i, d := range demand {
			if d > 0 {
				cands = append(cands, cand{i, rng.ExpFloat64() / float64(d)})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].key < cands[b].key })
		for _, c := range cands[:min(q, len(cands))] {
			demand[c.node]--
			masks[c.node] |= 1 << uint(t)
		}
	}
	return masks
}

// schedule is the publish schedule's topic sequence: cycles of fixed
// length in which every topic appears exactly its Zipf share of times,
// each cycle shuffled afresh.
type schedule struct {
	rng   *rand.Rand
	cycle []uint8
	pos   int
}

// lead events come before the first full cycle (they are the tail of a
// shuffled one), which lets a window that opens after a warm-up hold
// whole cycles.
func newSchedule(in topicInputs, cycleLen, lead int, rng *rand.Rand) *schedule {
	s := &schedule{rng: rng, cycle: make([]uint8, 0, cycleLen)}
	// A topic nobody subscribes to has nobody to publish it or receive it.
	w := append([]float64(nil), in.weights...)
	for t := range w {
		if len(in.members[t]) == 0 {
			w[t] = 0
		}
	}
	for t, q := range quotas(w, cycleLen) {
		for ; q > 0; q-- {
			s.cycle = append(s.cycle, uint8(t))
		}
	}
	s.shuffle()
	s.pos = len(s.cycle) - lead%len(s.cycle)
	return s
}

func (s *schedule) shuffle() {
	s.rng.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	s.pos = 0
}

// next returns the next event's topic.
func (s *schedule) next() int {
	if s.pos == len(s.cycle) {
		s.shuffle()
	}
	s.pos++
	return int(s.cycle[s.pos-1])
}
