package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// timing strips the wall-clock fragments fairbench prints, the only
// nondeterministic part of its stdout.
var timing = regexp.MustCompile(`\([0-9.]+s\)`)

// runOnce runs fairbench -small on one experiment into a temp dir and
// returns the normalised stdout plus each CSV's bytes.
func runOnce(t *testing.T, seed string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-small", "-seed", seed, "-only", "EXP-A6", "-out", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("fairbench exited %d: %s", code, errb.String())
	}
	csvs := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".csv") {
			blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			csvs[e.Name()] = blob
		}
	}
	return timing.ReplaceAllString(out.String(), "(T)"), csvs
}

// TestFairbenchSmoke: the table output is well-formed and the CSVs land
// where asked.
func TestFairbenchSmoke(t *testing.T) {
	stdout, csvs := runOnce(t, "1")
	if !strings.Contains(stdout, "########## EXP-A6") {
		t.Fatalf("missing experiment header:\n%s", stdout)
	}
	if !strings.Contains(stdout, "expected shape") {
		t.Fatalf("table note missing:\n%s", stdout)
	}
	if len(csvs) == 0 {
		t.Fatal("no CSV files written")
	}
	for name, blob := range csvs {
		lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has no data rows:\n%s", name, blob)
		}
		// Every row has the header's column count.
		want := strings.Count(lines[0], ",")
		for i, ln := range lines {
			if strings.Count(ln, ",") != want {
				t.Fatalf("%s row %d is ragged: %q (header %q)", name, i, ln, lines[0])
			}
		}
	}
}

// TestFairbenchDeterministic: two runs with the same seed produce
// byte-identical CSVs and (timing-normalised) identical stdout — the
// property every fixed-seed regression baseline in this repo rests on.
func TestFairbenchDeterministic(t *testing.T) {
	out1, csv1 := runOnce(t, "1")
	out2, csv2 := runOnce(t, "1")
	if out1 != out2 {
		t.Fatalf("stdout differs across identical seeds:\n--- a\n%s\n--- b\n%s", out1, out2)
	}
	if len(csv1) != len(csv2) {
		t.Fatalf("CSV sets differ: %d vs %d files", len(csv1), len(csv2))
	}
	names := make([]string, 0, len(csv1))
	for n := range csv1 {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !bytes.Equal(csv1[n], csv2[n]) {
			t.Fatalf("%s differs across identical seeds:\n--- a\n%s\n--- b\n%s", n, csv1[n], csv2[n])
		}
	}
}

// TestFairbenchBadFlag: unknown flags and unknown -only IDs are usage
// errors, not a crash or a silent empty run, while -h is plain usage
// output (exit 0).
func TestFairbenchBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for bad flag, want 2", code)
	}
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for -h, want 0", code)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-small", "-out", "", "-only", "EXP-A6,EXP-TYPO"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for an unknown -only ID, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("an unknown -only ID still ran something:\n%s", out.String())
	}
	if msg := errb.String(); !strings.Contains(msg, `"EXP-TYPO"`) || !strings.Contains(msg, "EXP-F1") || !strings.Contains(msg, "EXP-X2") {
		t.Fatalf("stderr should name the bad ID and print the catalogue:\n%s", msg)
	}
}

// goldenStdoutHash pins the full -small -seed 1 experiment suite's
// stdout (header lines stripped — they carry wall-clock seconds). The
// kernel-sharding PR verified this hash is unchanged by the envelope
// pool and the SelectInto scratch reuse: both are output-invariant. It
// was re-baselined once, from 2204ff69…, when per-node streams moved to
// the 16-byte randutil.NewStream generator — a lagged-Fibonacci source's
// state is its stream, so no stream-preserving shrink existed
// (PERFORMANCE.md "Determinism contract" has the before/after), and once
// more, from 6914bd66…, when holders began retiring an event after
// 2 × batch copies of it came back (gossip.Buffer.Duplicate: fewer
// pushes, so every table moves) — the same re-baseline carries EXP-F3's
// start inside its fanout limits and its two rewritten notes
// (PERFORMANCE.md "Redundancy budget"). And once from b26cd5b0…, when the
// failure detector came on under every Cyclon cluster (a shuffle target
// that leaves an offer unanswered gets its culled view entry back) and
// Rejoin/Join were introduced by protocol.Peer.Join over kindJoin in
// place of kindViewRepair: the two tables with crashes and loss move
// (EXP-T5, EXP-A5), no other row does (PERFORMANCE.md "Determinism
// contract"). If a change moves it on purpose, regenerate with:
//
//	go run ./cmd/fairbench -seed 1 -small -out '' | grep -v '^##########' | sha256sum
const goldenStdoutHash = "f69eb8b89ea46cb0edeedc468f11193c7dbd0fbdcb024f9505aa78a096dcc9fa"

// stableStdout strips the wall-clock-bearing header lines, mirroring
// the grep in the regeneration command (including grep's omission of a
// trailing newline-less empty element).
func stableStdout(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "##########") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return strings.TrimSuffix(b.String(), "\n")
}

func TestGoldenStdoutHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full -small experiment suite")
	}
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-seed", "1", "-small", "-out", ""}, &stdout, &stderr); rc != 0 {
		t.Fatalf("fairbench exited %d: %s", rc, stderr.String())
	}
	sum := sha256.Sum256([]byte(stableStdout(stdout.String())))
	if got := hex.EncodeToString(sum[:]); got != goldenStdoutHash {
		t.Errorf("stdout hash %s, want %s — the fixed-seed experiment output changed; "+
			"if intentional, update goldenStdoutHash", got, goldenStdoutHash)
	}
}
