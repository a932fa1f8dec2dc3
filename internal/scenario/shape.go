package scenario

import (
	"time"

	"fairgossip/internal/transport"
)

// ShapeSpec describes a WAN shaping profile in round-relative units, so
// one spec means the same thing on every column even though a gossip
// round is 100ms of virtual time on the simulator and 5ms of wall clock
// on the live runtimes. Each runtime converts it to its own clock: the
// live columns install a transport.Profile on the shaping middleware,
// the sim column hands the same Profile to core.Cluster.SetShape, which
// adds its hold to every delay and drops with its Loss. The engine folds
// a schedule's fault loss into Loss (Run.SetLoss).
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

// shapeProfile converts a round-relative spec to the transport.Profile
// of a column whose round lasts round: wall clock on a live column,
// virtual time on the sim column.
func shapeProfile(sp *ShapeSpec, round time.Duration) transport.Profile {
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
