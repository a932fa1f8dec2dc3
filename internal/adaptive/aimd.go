package adaptive

import "math"

// Lever selects which §5.2 lever(s) a controller is allowed to move —
// Fig. 3 names both the fanout and the gossip message size.
type Lever uint8

const (
	// LeverFanout adapts only the number of communication partners.
	LeverFanout Lever = iota + 1
	// LeverBatch adapts only the number of events per gossip message.
	LeverBatch
	// LeverBoth adapts the batch first (finer-grained) and spills into
	// the fanout when the batch saturates at a bound.
	LeverBoth
)

// AIMD is the additive-increase / multiplicative-decrease controller.
// Under-contributors raise their lever by one per window; over-
// contributors cut it by factor Beta. This mirrors how TCP resolves the
// same "share fairly without global knowledge" problem.
type AIMD struct {
	cfg   Config
	lever Lever
	f     float64 // continuous fanout state
	n     float64 // continuous batch state
}

// NewAIMD returns an AIMD controller starting from fanout f0 and batch n0
// (clamped into the configured limits).
func NewAIMD(cfg Config, lever Lever, f0, n0 int) *AIMD {
	cfg = cfg.withDefaults()
	if lever < LeverFanout || lever > LeverBoth {
		lever = LeverBoth
	}
	return &AIMD{
		cfg:   cfg,
		lever: lever,
		f:     cfg.clampFanout(float64(f0)),
		n:     cfg.clampBatch(float64(n0)),
	}
}

// Fanout implements Controller.
func (a *AIMD) Fanout() int { return int(math.Round(a.f)) }

// Batch implements Controller.
func (a *AIMD) Batch() int { return int(math.Round(a.n)) }

// Update implements Controller.
func (a *AIMD) Update(s Sample) (int, int) {
	err := error01(a.cfg, s)
	switch {
	case err > deadband: // over-contributing → decrease
		a.decrease()
	case err < -deadband: // under-contributing → increase
		a.increase()
	}
	return a.Fanout(), a.Batch()
}

func (a *AIMD) decrease() {
	switch a.lever {
	case LeverFanout:
		a.f = a.cfg.clampFanout(a.f * a.cfg.Beta)
	case LeverBatch:
		a.n = a.cfg.clampBatch(a.n * a.cfg.Beta)
	case LeverBoth:
		// Cut the batch first; once the batch is pinned at its minimum,
		// cut the fanout.
		if a.n > float64(a.cfg.BatchMin) {
			a.n = a.cfg.clampBatch(a.n * a.cfg.Beta)
		} else {
			a.f = a.cfg.clampFanout(a.f * a.cfg.Beta)
		}
	}
}

func (a *AIMD) increase() {
	switch a.lever {
	case LeverFanout:
		a.f = a.cfg.clampFanout(a.f + 1)
	case LeverBatch:
		a.n = a.cfg.clampBatch(a.n + 1)
	case LeverBoth:
		if a.n < float64(a.cfg.BatchMax) {
			a.n = a.cfg.clampBatch(a.n + 1)
		} else {
			a.f = a.cfg.clampFanout(a.f + 1)
		}
	}
}

// Proportional is a damped multiplicative P-controller: each window the
// active lever is scaled by (desired/actual)^Gain. It converges in a few
// windows when the plant is roughly linear in the lever (contribution ≈
// fanout × message size), at the cost of needing a sensible gain —
// EXP-A1/A2 sweep exactly this.
type Proportional struct {
	cfg   Config
	lever Lever
	f     float64
	n     float64
}

// NewProportional returns a proportional controller starting from fanout
// f0 and batch n0.
func NewProportional(cfg Config, lever Lever, f0, n0 int) *Proportional {
	cfg = cfg.withDefaults()
	if lever < LeverFanout || lever > LeverBoth {
		lever = LeverBoth
	}
	return &Proportional{
		cfg:   cfg,
		lever: lever,
		f:     cfg.clampFanout(float64(f0)),
		n:     cfg.clampBatch(float64(n0)),
	}
}

// Fanout implements Controller.
func (p *Proportional) Fanout() int { return int(math.Round(p.f)) }

// Batch implements Controller.
func (p *Proportional) Batch() int { return int(math.Round(p.n)) }

// Update implements Controller.
func (p *Proportional) Update(s Sample) (int, int) {
	desired := p.cfg.TargetRatio * s.Benefit
	err := error01(p.cfg, s)
	if err > -deadband && err < deadband {
		return p.Fanout(), p.Batch() // inside the deadband
	}
	var scale float64
	switch {
	case s.Contribution <= 0 && desired > 0:
		scale = 2 // we contributed nothing but should have: ramp up fast
	case desired <= 0:
		scale = 0.5 // no benefit: shed work toward the floor
	default:
		scale = math.Pow(desired/s.Contribution, p.cfg.Gain)
	}
	switch p.lever {
	case LeverFanout:
		p.f = p.cfg.clampFanout(p.f * scale)
	case LeverBatch:
		p.n = p.cfg.clampBatch(p.n * scale)
	case LeverBoth:
		// Split the correction across both levers: contribution is the
		// product fanout×batch, so each lever takes the square root of
		// the correction.
		half := math.Sqrt(scale)
		p.n = p.cfg.clampBatch(p.n * half)
		p.f = p.cfg.clampFanout(p.f * half)
	}
	return p.Fanout(), p.Batch()
}
