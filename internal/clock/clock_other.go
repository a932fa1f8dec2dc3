//go:build !linux

package clock

// newSource is the portable runtime timer on platforms without timerfd.
func newSource() source { return newTimerSource() }
