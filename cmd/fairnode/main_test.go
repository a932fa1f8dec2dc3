package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFairnodeDemoUDP: the demo subcommand runs a real multi-socket
// cluster end to end — every expected delivery arrives over loopback
// UDP and the report sections are printed.
func TestFairnodeDemoUDP(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"demo", "-n", "6", "-events", "10", "-seed", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{"127.0.0.1:", "watches t", "transport traffic:", "fairness report:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output:\n%s", want, s)
		}
	}
	if strings.Contains(s, "delivered 0 of") {
		t.Fatalf("nothing was delivered:\n%s", s)
	}
}

// TestFairnodeDemoJoiners: -join boots extra peers into the running
// cluster through real membership handshakes; they get addresses,
// subscribe, and the demo still reaches full delivery counting them.
func TestFairnodeDemoJoiners(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"demo", "-n", "6", "-join", "3", "-events", "10", "-seed", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{"node  6", "node  8", "joins, watches"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output:\n%s", want, s)
		}
	}
	if strings.Contains(s, "delivered 0 of") {
		t.Fatalf("nothing was delivered:\n%s", s)
	}
}

// TestFairnodeDemoChanTransport: the same demo runs on the in-process
// transport via the -transport knob.
func TestFairnodeDemoChanTransport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"demo", "-n", "5", "-events", "8", "-transport", "chan", "-seed", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "chan://") {
		t.Fatalf("chan transport addresses missing:\n%s", out.String())
	}
}

// TestFairnodeUsageAndErrors: bad invocations are usage errors; help
// exits zero.
func TestFairnodeUsageAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"warp"}, &out, &errb); code != 2 {
		t.Fatalf("unknown subcommand: exit %d, want 2", code)
	}
	if code := run([]string{"demo", "-transport", "tcp"}, &out, &errb); code != 2 {
		t.Fatalf("unknown transport: exit %d, want 2", code)
	}
	for _, bad := range [][]string{
		{"-topics", "0"},   // was a divide by zero
		{"-topics", "-2"},  // was an Intn panic
		{"-payload", "-1"}, // was a makeslice panic
	} {
		errb.Reset()
		if code := run(append([]string{"demo"}, bad...), &out, &errb); code != 2 || errb.Len() == 0 {
			t.Fatalf("demo %v: exit %d, stderr %q; want 2 and a message", bad, code, errb.String())
		}
	}
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	if code := run([]string{"demo", "-h"}, &out, &errb); code != 0 {
		t.Fatalf("demo -h: exit %d, want 0", code)
	}
}

// TestFairnodeDemoRefusesNonPositivePeriod: a round period of zero or
// less is a usage error. The cluster would run on its 20 ms default
// while the demo paced publishes and polled delivery on the raw flag —
// a spin loop that burst every event out at once and could time out.
func TestFairnodeDemoRefusesNonPositivePeriod(t *testing.T) {
	for _, period := range []string{"0", "-5ms"} {
		var out, errb bytes.Buffer
		code := run([]string{"demo", "-period", period, "-transport", "chan", "-events", "200", "-timeout", "5s"}, &out, &errb)
		if code != 2 || !strings.Contains(errb.String(), "-period") {
			t.Fatalf("demo -period %s: exit %d, stderr %q; want 2 and a message naming -period", period, code, errb.String())
		}
	}
}

// TestFairnodeDemoLeavers: -leave makes the last founders depart
// gracefully once the cluster runs; they owe no deliveries and the demo
// still reaches full delivery over the survivors.
func TestFairnodeDemoLeavers(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"demo", "-n", "8", "-leave", "2", "-events", "10", "-transport", "chan", "-seed", "5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{"will depart gracefully", "node  7  departed gracefully"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output:\n%s", want, s)
		}
	}
	if strings.Contains(s, "delivered 0 of") {
		t.Fatalf("nothing was delivered:\n%s", s)
	}
	if code := run([]string{"demo", "-n", "4", "-leave", "4"}, &out, &errb); code != 2 {
		t.Fatalf("-leave == n: exit %d, want 2 (usage error)", code)
	}
}
