package rules_test

import (
	"testing"

	"fairgossip/internal/analysis"
	"fairgossip/internal/analysis/rules"
)

// The fixture module's packages are not in the built-in deterministic
// list; the two fixtures that exercise the determinism rule join it for
// the test binary only.
func init() {
	rules.DeterministicPackages["fixtures/determinism"] = true
	rules.DeterministicPackages["fixtures/ignore"] = true
}

// Each fixture package seeds the violations the analyzer must catch
// (and the clean patterns it must not); the `// want` comments are the
// exact expectations, checked both ways.

func TestDeterminismFixture(t *testing.T) {
	analysis.RunFixture(t, "testdata", "determinism", []*analysis.Analyzer{rules.Determinism})
}

// TestIgnoreAuditFixture runs the full suite so every suppression audit
// path fires: unknown directives, unknown rules, missing
// justifications, stale ignores, and the one legal justified hatch.
func TestIgnoreAuditFixture(t *testing.T) {
	analysis.RunFixture(t, "testdata", "ignore", rules.All())
}

// TestFairvetClean is the same gate `make lint` enforces, as a test:
// the whole tree carries zero unsuppressed findings and every escape
// hatch is justified and live.
func TestFairvetClean(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	findings, err := analysis.Run(pkgs, rules.All())
	if err != nil {
		t.Fatalf("running fairvet: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
