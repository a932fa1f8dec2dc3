package scenario

import (
	"fmt"
	"strings"

	"fairgossip/internal/fairness"
)

// invariant is one machine-checked property of a scenario run. Some are
// enforced during the run (false deliveries are caught at delivery
// time); check renders the verdict once the run has drained.
type invariant struct {
	name  string
	check func() error
}

// invariants assembles the checks that apply to this run: the universal
// ones — no runtime can opt out of any of them — and those the scenario
// asks for.
func (r *Run) invariants() []invariant {
	list := []invariant{
		{"no-false-delivery", r.noFalseDelivery},
		{"eventual-delivery", r.eventualDelivery},
		{"ledger-conservation", r.ledgerConservation},
		{"drop-conservation", r.dropConservation},
	}
	if r.sc.TargetRatio > 0 {
		list = append(list, invariant{"fairness-convergence", r.fairnessConvergence})
	}
	if r.sc.CheckViewHygiene {
		list = append(list, invariant{"view-hygiene", r.viewHygiene})
	}
	if r.sc.CheckRecovery {
		list = append(list, invariant{"bounded-recovery", r.boundedRecovery})
	}
	return list
}

// noFalseDelivery: a peer only ever delivers events that matched a
// filter it held at (or after) publish time — the safety half of the
// paper's §2 selective-information model. Detected inline by the
// delivery observer; this check reports what it caught.
func (r *Run) noFalseDelivery() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.falseTotal > 0 {
		return fmt.Errorf("%d false deliveries (first: %s)", r.falseTotal, r.falseDel[0])
	}
	return nil
}

// eventualDelivery: every peer that stayed up, connected to the
// publisher, and interested must deliver the event — the liveness half,
// the paper's gossip-reliability claim (§4.2, Fig. 4) under adversity.
// MinDelivery < 1 leaves slack for stochastic loss tails.
func (r *Run) eventualDelivery() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	eligible, delivered, firstMiss := r.pairTotalsLocked()
	if eligible == 0 {
		return nil
	}
	ratio := float64(delivered) / float64(eligible)
	if ratio < r.sc.MinDelivery {
		return fmt.Errorf("delivered %d/%d eligible pairs (%.4f < floor %.4f); e.g. %s",
			delivered, eligible, ratio, r.sc.MinDelivery, firstMiss)
	}
	return nil
}

// dropConservation: every message the network accepted was either
// received or counted as dropped — nothing vanishes, nothing is
// double-delivered. Exact on every runtime, and checked on every
// runtime: the sim drains its event queue before the check, the live
// runtime counts each send attempt against a drop bucket (injected
// faults, full inboxes, refused sends) and quiesces its transport on
// Close — a storm run cannot pass while losing messages invisibly.
func (r *Run) dropConservation() error {
	sent, recv, dropped := r.rt.Traffic()
	if sent != recv+dropped {
		return fmt.Errorf("sent %d != received %d + dropped %d (leak of %d)",
			sent, recv, dropped, int64(sent)-int64(recv)-int64(dropped))
	}
	return nil
}

// ledgerConservation: the fairness ledger's books balance — the engine's
// independently-observed counts agree with the ledger (every AddDelivery
// had a delivery observer call and vice versa, ditto publishes), audited
// bytes never exceed bytes actually sent (§5.2's novelty audit cannot
// credit more than the wire carried), and global contribution covers
// global benefit (Fig. 1's ratios are meaningful: somebody paid for
// every delivery).
func (r *Run) ledgerConservation() error {
	l := r.rt.Ledger()
	w := l.Weights()
	var ledgerDelivered, ledgerPublished uint64
	var contrib, benefit float64
	for i := 0; i < l.Len(); i++ {
		a := l.Account(i)
		ledgerDelivered += a.Delivered
		ledgerPublished += a.Published
		if audited := a.UsefulBytes + a.JunkBytes; audited > a.BytesSent[fairness.ClassApp] {
			return fmt.Errorf("node %d audited for %d bytes but sent only %d app bytes",
				i, audited, a.BytesSent[fairness.ClassApp])
		}
		contrib += fairness.Contribution(a, w)
		benefit += fairness.Benefit(a, w)
	}
	if observed := r.deliveries.Load(); ledgerDelivered != observed {
		return fmt.Errorf("ledger counts %d deliveries, observers saw %d", ledgerDelivered, observed)
	}
	r.mu.Lock()
	published := r.published
	r.mu.Unlock()
	if ledgerPublished != published {
		return fmt.Errorf("ledger counts %d publishes, engine made %d", ledgerPublished, published)
	}
	if ledgerDelivered > 0 && contrib < benefit {
		return fmt.Errorf("global contribution %.0f below global benefit %.0f", contrib, benefit)
	}
	return nil
}

// viewHygiene: within 2·N rounds of the last fault action, no live
// peer's membership view still holds the address of a down peer —
// graceful leavers are scrubbed by the Leave hand-off, crashed peers by
// the probe-timeout failure detector riding the Cyclon shuffles. Stale
// addresses are the paper's §3.2 instability cost made permanent: a
// view slot pointing at a dead peer wastes a share of every future
// shuffle and gossip fanout. The settle phase records when clean views
// were first observed; after Close the final views are audited again
// (authoritative read — no peer goroutine can resurrect an address).
func (r *Run) viewHygiene() error {
	if r.hygieneAt < 0 {
		return fmt.Errorf("views not clean within %d rounds of the last fault (round %d): %s",
			r.hygieneBudget(), r.lastFault, r.hygieneNote)
	}
	if off := r.hygieneOffender(); off != "" {
		return fmt.Errorf("dead address resurfaced after round %d: %s", r.hygieneAt, off)
	}
	return nil
}

// boundedRecovery: delivery reaches the MinDelivery floor within
// recoveryC·N rounds of the last fault action — the recovery-time
// bound that turns "eventual delivery" into a budgeted guarantee
// (linear-in-N dissemination bounds in the style of arXiv:1701.06800).
// The settle phase records the round the floor was first met; never
// meeting it inside the budget is the violation.
func (r *Run) boundedRecovery() error {
	budget := r.recoveryBudget()
	if r.recoveredAt < 0 {
		r.mu.Lock()
		eligible, delivered, firstMiss := r.pairTotalsLocked()
		r.mu.Unlock()
		return fmt.Errorf("delivery did not recover within %d rounds (c=%d, N=%d) of the last fault (round %d): %d/%d pairs; e.g. %s",
			budget, recoveryC, r.N(), r.lastFault, delivered, eligible, firstMiss)
	}
	if got := r.recoveredAt - r.lastFault; got > budget {
		return fmt.Errorf("recovered %d rounds after the last fault, budget %d", got, budget)
	}
	return nil
}

// fairnessConvergence: under the AIMD controller (§5.2), the windowed
// per-peer contribution/benefit ratios must tighten — the late-half Jain
// index over stable peers meets the scenario floor and does not collapse
// relative to the early half. This operationalises the paper's Fig. 1
// definition of fairness as a property the controller maintains, not
// just reaches once.
func (r *Run) fairnessConvergence() error {
	r.mu.Lock()
	early, late := r.fairnessWindowsLocked()
	r.mu.Unlock()
	floor := fairnessFloor
	if strings.HasPrefix(r.rt.Name(), "live") {
		// Wall-clock scheduling jitters the live windows; hold the
		// same shape to a looser floor.
		floor *= 0.7
	}
	if late < floor {
		return fmt.Errorf("late-window Jain %.3f below floor %.3f", late, floor)
	}
	if late < early-0.2 {
		return fmt.Errorf("fairness regressed: Jain %.3f -> %.3f", early, late)
	}
	return nil
}
