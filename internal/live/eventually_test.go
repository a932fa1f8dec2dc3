package live

import (
	"testing"
	"time"
)

// Eventually polls cond every step until it holds or the timeout
// expires, then reports cond's final verdict. The stated timeout is
// scaled by raceDeadlineScale (4× under -race), so one deadline means
// the same thing on a bare run and under the detector's
// instrumentation. It is the tests' replacement for hand-rolled
// time.Now() busy-wait loops; the runtime itself waits on its clock
// (RunRounds, Settle).
//
// A step of zero polls every 5ms, the granularity the live tests use.
func Eventually(timeout, step time.Duration, cond func() bool) bool {
	if step <= 0 {
		step = 5 * time.Millisecond
	}
	deadline := time.Now().Add(timeout * raceDeadlineScale)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(step)
	}
	return cond()
}

// eventually is the test-side wrapper over Eventually: same polling and
// race-scaled deadline, plus the t.Helper() bookkeeping.
func eventually(t testing.TB, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	return Eventually(timeout, 0, cond)
}
