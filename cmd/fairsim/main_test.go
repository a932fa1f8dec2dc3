package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var wallClock = regexp.MustCompile(`in [0-9.]+s wall`)

func runSingleOnce(t *testing.T) string {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"-n", "48", "-rounds", "20", "-seed", "5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("fairsim exited %d: %s", code, errb.String())
	}
	return wallClock.ReplaceAllString(out.String(), "in (T) wall")
}

// TestFairsimSingleSmoke: the classic mode prints a complete report.
func TestFairsimSingleSmoke(t *testing.T) {
	out := runSingleOnce(t)
	for _, want := range []string{"fairgossip: n=48", "network", "events delivered", "top 5 contributors:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestFairsimSingleDeterministic: same seed, same output (wall clock
// normalised).
func TestFairsimSingleDeterministic(t *testing.T) {
	a, b := runSingleOnce(t), runSingleOnce(t)
	if a != b {
		t.Fatalf("output differs across identical seeds:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestFairsimScenarioList: the subcommand lists every built-in.
func TestFairsimScenarioList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"scenario", "-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"calm", "churn-waves", "partition-heal", "lossy", "flash-crowd", "sub-churn", "free-riders", "storm"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("scenario %q missing from -list:\n%s", want, out.String())
		}
	}
}

// TestFairsimScenarioRun: a sim scenario run passes its invariants and
// is byte-identical across two runs with the same seed (no wall-clock
// text in scenario output at all).
func TestFairsimScenarioRun(t *testing.T) {
	runOnce := func() string {
		var out, errb bytes.Buffer
		if code := run([]string{"scenario", "-name", "churn-waves", "-runtime", "sim", "-seed", "3"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
		}
		return out.String()
	}
	a := runOnce()
	if !strings.Contains(a, "invariants         all passing") {
		t.Fatalf("scenario did not pass:\n%s", a)
	}
	if b := runOnce(); a != b {
		t.Fatalf("scenario output differs across identical seeds:\n--- a\n%s--- b\n%s", a, b)
	}
}

// TestFairsimScenarioUDPTransport: the live-udp column runs the live
// runtime over real loopback sockets; the run must pass its invariants
// and identify itself as live-udp.
func TestFairsimScenarioUDPTransport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"scenario", "-name", "calm", "-runtime", "live-udp", "-seed", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "runtime=live-udp") {
		t.Fatalf("run did not report the udp runtime:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "invariants         all passing") {
		t.Fatalf("udp scenario did not pass:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "msgs sent") {
		t.Fatalf("live traffic counters missing from output:\n%s", out.String())
	}
}

// TestFairsimScenarioErrors: unknown names and columns are usage
// errors.
func TestFairsimScenarioErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"scenario", "-name", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2", code)
	}
	// One unknown column in the -runtime list is refused before any
	// column runs.
	for _, cols := range []string{"warp", "sim,warp", "both", "sim,,live", "all,sim"} {
		out.Reset()
		if code := run([]string{"scenario", "-name", "calm", "-runtime", cols}, &out, &errb); code != 2 {
			t.Fatalf("-runtime %s: exit %d, want 2", cols, code)
		}
		if out.Len() != 0 {
			t.Fatalf("-runtime %s ran a column before refusing:\n%s", cols, out.String())
		}
	}
	if code := run([]string{"scenario"}, &out, &errb); code != 2 {
		t.Fatalf("missing -name: exit %d, want 2", code)
	}
	// A bad flag value is refused with exit 2 and nothing on stdout.
	for _, args := range [][]string{{"-mode", "warp"}, {"-n", "0"}, {"-n", "-3"}, {"-payload", "-1"}, {"-top", "-1"}} {
		out.Reset()
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Fatalf("%v wrote to stdout before refusing:\n%s", args, out.String())
		}
	}
}

// TestFairsimHelp: -h prints usage and exits 0, in both modes.
func TestFairsimHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exit %d, want 0", code)
	}
	if code := run([]string{"scenario", "-h"}, &out, &errb); code != 0 {
		t.Fatalf("scenario -h exit %d, want 0", code)
	}
}

// TestFairsimScenarioShapePreset: -shape overlays a WAN preset on any
// scenario; the shaped run still passes and stays deterministic on sim,
// and unknown presets are usage errors.
func TestFairsimScenarioShapePreset(t *testing.T) {
	runOnce := func() string {
		var out, errb bytes.Buffer
		if code := run([]string{"scenario", "-name", "calm", "-runtime", "sim", "-seed", "4", "-shape", "lossy-wan"}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
		}
		return out.String()
	}
	a := runOnce()
	if !strings.Contains(a, "invariants         all passing") {
		t.Fatalf("shaped scenario did not pass:\n%s", a)
	}
	if !strings.Contains(a, "msgs dropped") {
		t.Fatalf("traffic counters missing:\n%s", a)
	}
	if b := runOnce(); a != b {
		t.Fatalf("shaped sim run not deterministic:\n--- a\n%s--- b\n%s", a, b)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"scenario", "-name", "calm", "-shape", "marsnet"}, &out, &errb); code != 2 {
		t.Fatalf("unknown preset: exit %d, want 2", code)
	}
}
