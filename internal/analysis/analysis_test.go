package analysis

import "testing"

// The fixture module's package is not in the built-in deterministic
// list; it joins for the test binary only.
func init() {
	DeterministicPackages["fixtures/determinism"] = true
}

// TestDeterminismFixture runs the rule over a fixture package that
// seeds every violation class it must catch (and the clean patterns it
// must not); the `// want` comments are the exact expectations,
// checked both ways.
func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "testdata", "determinism")
}

// TestTreeIsDeterministic is the lint gate: the determinism rule over
// every package of the module, with no finding allowed.
func TestTreeIsDeterministic(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	for _, pkg := range pkgs {
		for _, f := range Determinism(pkg) {
			t.Errorf("%s", f)
		}
	}
}
