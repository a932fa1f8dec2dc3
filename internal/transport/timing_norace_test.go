//go:build !race

package transport

// raceTimingScale is 1 on uninstrumented runs; see timing_race_test.go.
const raceTimingScale = 1
