// Package adaptive implements the §5.2 participation controllers: each
// process adapts its gossip fanout and/or gossip message size (events per
// gossip message, "batch") so that its contribution tracks f times its
// benefit — the fairness target of Fig. 1.
//
// Two controller families are provided, ablated in EXP-A1/A2:
//
//   - AIMD: additive increase when under-contributing, multiplicative
//     decrease when over-contributing (TCP-style, robust but oscillatory).
//   - Proportional: a damped multiplicative P-controller that scales the
//     lever by (desired/actual)^gain (faster convergence, needs a sane
//     gain).
//
// Controllers keep continuous internal state and emit integer levers, so
// small corrections accumulate rather than stall on rounding.
package adaptive

import "math"

// Sample is one control window's observation: the benefit accrued and the
// contribution spent during the window (units are the ledger's — events
// and bytes — but only their ratio matters).
type Sample struct {
	Benefit      float64
	Contribution float64
}

// Limits bound the control levers. The paper's question 3 (minimum
// fanout) is encoded in FanoutMin: gossip reliability requires a floor
// near ln(n) (EXP-A3 measures exactly this).
type Limits struct {
	FanoutMin, FanoutMax int
	BatchMin, BatchMax   int
}

// DefaultLimits returns sane bounds for a system of n processes:
// FanoutMin = ⌈ln n⌉, FanoutMax = 4·FanoutMin, batch within [1, 64].
func DefaultLimits(n int) Limits {
	fmin := int(math.Ceil(math.Log(float64(n))))
	if fmin < 1 {
		fmin = 1
	}
	return Limits{
		FanoutMin: fmin,
		FanoutMax: 4 * fmin,
		BatchMin:  1,
		BatchMax:  64,
	}
}

func (l Limits) clampFanout(f float64) float64 {
	return clamp(f, float64(l.FanoutMin), float64(l.FanoutMax))
}

func (l Limits) clampBatch(b float64) float64 {
	return clamp(b, float64(l.BatchMin), float64(l.BatchMax))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// deadband is the relative error around the target within which a
// controller holds its levers still.
const deadband = 0.1

// Config parameterises a controller.
type Config struct {
	// TargetRatio is f: the system-wide contribution-per-benefit target.
	TargetRatio float64
	// Gain damps proportional corrections (default 0.5); ignored by AIMD.
	Gain float64
	// Beta is AIMD's multiplicative-decrease factor (default 0.7);
	// ignored by the proportional controller.
	Beta float64
	Limits
}

func (c Config) withDefaults() Config {
	if c.Gain <= 0 {
		c.Gain = 0.5
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.7
	}
	if c.FanoutMax < c.FanoutMin {
		c.FanoutMax = c.FanoutMin
	}
	if c.BatchMax < c.BatchMin {
		c.BatchMax = c.BatchMin
	}
	return c
}

// Controller adapts the two §5.2 levers from windowed samples.
type Controller interface {
	// Update consumes the previous window's sample and returns the levers
	// to use for the next window.
	Update(s Sample) (fanout, batch int)
	// Fanout returns the current fanout lever.
	Fanout() int
	// Batch returns the current batch (gossip message size) lever.
	Batch() int
}

// error01 returns the signed relative error of contribution versus the
// target: 0 on target, +1 means 2× over, −0.5 means at half the target.
// When the desired contribution is 0 (no benefit), any positive
// contribution reads as maximally over target.
func error01(cfg Config, s Sample) float64 {
	desired := cfg.TargetRatio * s.Benefit
	if desired <= 0 {
		if s.Contribution > 0 {
			return 1
		}
		return 0
	}
	return (s.Contribution - desired) / desired
}

// Static is a non-adaptive controller pinning both levers — the paper's
// classic gossip configuration ("a static fanout F and a static size of
// gossip message N", §5.2).
type Static struct {
	F, N int
}

// Update implements Controller (it never changes anything).
func (s Static) Update(Sample) (int, int) { return s.F, s.N }

// Fanout implements Controller.
func (s Static) Fanout() int { return s.F }

// Batch implements Controller.
func (s Static) Batch() int { return s.N }

var (
	_ Controller = Static{}
	_ Controller = (*AIMD)(nil)
	_ Controller = (*Proportional)(nil)
)
