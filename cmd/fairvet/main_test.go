package main

import (
	"strings"
	"testing"
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
	if got, want := strings.Join(names, ","), "determinism,dropacct,directive"; got != want {
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
// findings, using the dropacct fixture (its seeded violations).
func TestFindingsExitOne(t *testing.T) {
	t.Chdir("../../internal/analysis/rules/testdata")
	var out, errb strings.Builder
	if code := run([]string{"./dropacct"}, &out, &errb); code != 1 {
		t.Fatalf("fairvet over the dropacct fixture = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stderr = %q, want the finding count", errb.String())
	}
}
