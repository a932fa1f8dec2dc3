//go:build race

package live

// raceDeadlineScale stretches every live deadline under -race — Settle's
// bound and the tests' Eventually: detector instrumentation slows the
// peer goroutines several-fold, and a deadline tuned for a bare run
// flakes there.
const raceDeadlineScale = 4
