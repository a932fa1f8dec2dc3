// Package analysis holds the repo's one static check: the determinism
// rule (determinism.go), which keeps wall clocks, the process-global
// RNG, package-level RNG streams and map-iteration order out of the
// packages a fixed-seed run flows through. Everything else the repo
// promises is pinned at runtime (the golden fixed-seed hashes, the
// AllocsPerRun pins, the race detector, the conservation tests); see
// LINTING.md for the trials that decided the split.
//
// The rule runs as a test: TestTreeIsDeterministic loads the whole
// tree and fails on any finding, in `go test ./...` and in the CI lint
// job. There is no escape hatch; a finding is fixed by moving the code
// out of the deterministic package. The x/tools module is deliberately
// not a dependency (the module has zero third-party requirements), so
// the package carries its own loader, built on `go list -export` plus
// the stdlib gc importer (load.go).
package analysis

import (
	"fmt"
	"go/token"
)

// A Finding is one violation of the determinism rule.
type Finding struct {
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s", f.Position, f.Message)
}
