package eventsim

import "time"

// Ticker repeatedly invokes a callback at a fixed virtual-time interval,
// optionally with bounded uniform jitter. Gossip rounds are driven by
// tickers; per-node jitter desynchronises rounds the way real clocks do.
type Ticker struct {
	sim      *Sim
	interval time.Duration
	jitter   time.Duration
	fn       func()
	fire     func() // built once; rescheduling allocates no new closure
	stopped  bool
}

// Every schedules fn to run every interval, starting one interval from
// now. If jitter > 0 each firing is displaced by a uniform random offset
// in [0, jitter). interval must be positive; a non-positive interval
// returns a stopped ticker that never fires.
func (s *Sim) Every(interval, jitter time.Duration, fn func()) *Ticker {
	t := &Ticker{sim: s, interval: interval, jitter: jitter, fn: fn}
	if interval <= 0 {
		t.stopped = true
		return t
	}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	d := t.interval
	if t.jitter > 0 {
		d += time.Duration(t.sim.rng.Int63n(int64(t.jitter)))
	}
	t.sim.After(d, t.fire)
}

// Stop halts the ticker. It is safe to call from inside the callback and
// is idempotent. The tick already queued stays queued and fires as a
// no-op: it calls no callback and draws no random number.
func (t *Ticker) Stop() { t.stopped = true }
