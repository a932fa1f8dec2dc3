// Package ignore exercises the driver's suppression audit: the //fair:
// vocabulary is itself verified, so a malformed, unjustified, or stale
// escape hatch is a finding — only a justified hatch that suppresses a
// real diagnostic stays silent. (The fixture suite adds this package to
// rules.DeterministicPackages so the wallclock hatches have something
// to suppress.)
package ignore

import "time"

//fair:typo gibberish // want `unknown //fair: directive "typo"`
var _ = 0

//fair:ignore nosuchrule because reasons // want `//fair:ignore names unknown rule "nosuchrule"`
var _ = 1

//fair:ignore determinism // want `//fair:ignore is missing its justification`
var _ = 2

//fair:ignore determinism justified yet aimed at nothing // want `suppresses nothing`
var _ = 3

func justifiedHatch() time.Time {
	return time.Now() //fair:wallclock a used, justified hatch is silent
}

func unjustifiedHatch() time.Time {
	return time.Now() //fair:wallclock // want `//fair:wallclock is missing its justification` `time\.Now in a sim-deterministic package`
}
