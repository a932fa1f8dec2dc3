//go:build race

package transport

// raceTimingScale stretches timing bounds under -race: detector
// instrumentation slows every goroutine several-fold, and a bound tuned
// for a bare run flakes there.
const raceTimingScale = 10
