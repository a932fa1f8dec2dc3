package main

import (
	"strings"
	"testing"

	"fairgossip/internal/analysis/rules"
)

func TestListCatalogue(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("fairvet -list = %d, stderr: %s", code, errb.String())
	}
	// Exactly the surviving catalogue, in order: rule names are the
	// unindented lines.
	var names []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "\t") {
			names = append(names, line)
		}
	}
	if got, want := strings.Join(names, ","), "determinism,directive"; got != want {
		t.Errorf("catalogue rules = %s, want %s", got, want)
	}
}

// TestSelfClean pins exit code 0: fairvet over its own (clean) package.
func TestSelfClean(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("fairvet over its own package = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestFindingsExitOne pins exit code 1 on a package with unsuppressed
// findings, using the determinism fixture (its seeded violations; the
// fixture joins the deterministic list for this test only).
func TestFindingsExitOne(t *testing.T) {
	rules.DeterministicPackages["fixtures/determinism"] = true
	defer delete(rules.DeterministicPackages, "fixtures/determinism")
	t.Chdir("../../internal/analysis/rules/testdata")
	var out, errb strings.Builder
	if code := run([]string{"./determinism"}, &out, &errb); code != 1 {
		t.Fatalf("fairvet over the determinism fixture = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[determinism]") || !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stdout = %q, stderr = %q, want determinism findings and their count", out.String(), errb.String())
	}
}
