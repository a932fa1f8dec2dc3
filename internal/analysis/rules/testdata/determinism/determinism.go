// Package determinism seeds every violation class the determinism rule
// catches. The fixture path is not on rules.DeterministicPackages; the
// fixture suite adds it for the test run.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

var sharedRNG = rand.New(rand.NewSource(1)) // want `package-level rand\.Rand sharedRNG is an RNG stream shared across every caller`

var sharedSource rand.Source // want `package-level rand\.Source sharedSource is an RNG stream`

var rngPerTopic map[string]*rand.Rand // want `package-level rand\.Rand rngPerTopic is an RNG stream`

// Node-scoped streams (fields, locals, parameters) stay legal.
type nodeScoped struct {
	rng *rand.Rand
}

func wallclock() time.Time {
	return time.Now() // want `time\.Now in a sim-deterministic package`
}

func sleepy() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in a sim-deterministic package`
}

func escapeHatch() time.Time {
	return time.Now() //fair:wallclock fixture demonstrates the audited escape hatch
}

func globalDraw() int {
	return rand.Intn(10) // want `rand\.Intn draws from the process-global RNG`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle draws from the process-global RNG`
}

func seededDraw(rng *rand.Rand) int {
	return rng.Intn(10) // methods on a seeded source are fine
}

func construct() *rand.Rand {
	return rand.New(rand.NewSource(1)) // constructors stay allowed
}

func orderLeak(m map[int]int, sink func(int)) {
	for k := range m { // want `map iteration order feeds ordering-sensitive logic`
		sink(k)
	}
}

func appendLeak(m map[int]int) []int {
	var keys []int
	for k := range m { // want `map iteration order feeds ordering-sensitive logic \(append in the loop body\)`
		keys = append(keys, k)
	}
	return keys
}

func collectThenSort(m map[int]int) []int {
	var keys []int
	for k := range m { // append-only body sorted below: the sanctioned repair
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func commutative(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func intoAnotherMap(src map[int]int, dst map[int]int) {
	for k, v := range src { // map-to-map transfer observes no order
		dst[k] = v
	}
}
