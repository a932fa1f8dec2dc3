package scenario

import (
	"fmt"
	"time"

	"fairgossip/internal/transport"
)

// ShapeSpec describes a WAN shaping profile in round-relative units, so
// one spec means the same thing on every column even though a gossip
// round is 100ms of virtual time on the simulator and 5ms of wall clock
// on the live runtimes. Each runtime converts it to its own clock: the
// live columns install a transport.Profile on the shaping middleware,
// the sim column swaps the network latency model and folds Loss into
// the composed drop probability (see SimRuntime.SetShape).
type ShapeSpec struct {
	// DelayRounds is the fixed one-way delay, as a fraction of a round.
	DelayRounds float64
	// JitterRounds is the width of the uniform extra delay, as a
	// fraction of a round.
	JitterRounds float64
	// Reorder is the probability a message draws a large extra delay and
	// overtakes later traffic.
	Reorder float64
	// Loss is the i.i.d. shaper drop probability, composed with (not
	// replacing) any scenario fault loss.
	Loss float64
}

// liveProfile converts a round-relative spec to the wall-clock
// transport.Profile for a live column running at the given round period.
func liveProfile(sp *ShapeSpec, round time.Duration) transport.Profile {
	if sp == nil {
		return transport.Profile{}
	}
	return transport.Profile{
		Delay:   time.Duration(sp.DelayRounds * float64(round)),
		Jitter:  time.Duration(sp.JitterRounds * float64(round)),
		Reorder: sp.Reorder,
		Loss:    sp.Loss,
	}
}

// --- Presets -----------------------------------------------------------------

// ShapePreset returns a named shaping profile for command-line use
// (`fairsim -shape <name>`): "none" (or "") means unshaped, "wan" is a
// moderate wide-area profile, "lossy-wan" adds real loss, "mobile" is
// high-jitter with mild loss.
func ShapePreset(name string) (*ShapeSpec, bool) {
	switch name {
	case "", "none":
		return nil, true
	case "wan":
		return &ShapeSpec{DelayRounds: 0.2, JitterRounds: 0.3, Reorder: 0.05}, true
	case "lossy-wan":
		return &ShapeSpec{DelayRounds: 0.2, JitterRounds: 0.3, Reorder: 0.08, Loss: 0.03}, true
	case "mobile":
		return &ShapeSpec{DelayRounds: 0.1, JitterRounds: 0.6, Reorder: 0.1, Loss: 0.01}, true
	}
	return nil, false
}

// ShapePresetNames lists the ShapePreset vocabulary.
func ShapePresetNames() []string { return []string{"none", "wan", "lossy-wan", "mobile"} }

// --- Actions -----------------------------------------------------------------

// Shape swaps the shaping profile mid-run on every column. Like Loss, it
// does not change delivery eligibility — the MinDelivery floor carries
// the stochastic slack — but it counts as a fault action for the
// recovery clock.
func Shape(sp ShapeSpec) Action {
	return Action{
		Name: fmt.Sprintf("shape delay=%.2fr jitter=%.2fr reorder=%.0f%% loss=%.0f%%",
			sp.DelayRounds, sp.JitterRounds, sp.Reorder*100, sp.Loss*100),
		Do: func(r *Run) { r.ShapeTo(sp) },
	}
}

// ClearShape removes all shaping (an inert profile).
func ClearShape() Action {
	return Action{Name: "shape clear", Do: func(r *Run) { r.ShapeTo(ShapeSpec{}) }}
}

// RegionalOutage cuts one region (peers with id ≡ region mod
// Scenario.Regions) off from the rest of the population: intra-region
// traffic still flows, cross-boundary traffic is dropped by the
// runtime's partition (see Run.RegionalOutage). Requires Regions > 0.
func RegionalOutage(region int) Action {
	return Action{
		Name: fmt.Sprintf("regional outage %d", region),
		Do:   func(r *Run) { r.RegionalOutage(region) },
	}
}

// RegionalHeal reconnects all regions: the outage is a partition, so
// this is Heal under the scenario author's name for it.
func RegionalHeal() Action {
	return Action{Name: "regional heal", Do: func(r *Run) { r.Heal() }}
}

// RebindFrac makes ⌈frac·N⌉ random up peers change their transport
// address mid-run (a mobile client switching networks) and re-announce
// through the join path. Peers stay up throughout, so their delivery
// eligibility is unchanged — a rebind must lose nothing.
func RebindFrac(frac float64) Action {
	return Action{
		Name: fmt.Sprintf("rebind %.0f%%", frac*100),
		Do: func(r *Run) {
			k := int(frac*float64(r.N()) + 0.5)
			for _, id := range SampleDistinct(r.Rng, r.N(), k, func(id int) bool { return !r.NodeUp(id) }) {
				r.RebindPeer(id)
			}
		},
	}
}
