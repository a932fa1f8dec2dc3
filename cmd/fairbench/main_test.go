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

	"fairgossip/internal/benchrecord"
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
	code := run([]string{"-small", "-seed", seed, "-only", "EXP-A6", "-out", dir, "-json", filepath.Join(dir, "rec.json")}, &out, &errb)
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
	stdout := timing.ReplaceAllString(out.String(), "(T)")
	// The run-record line embeds the per-run temp dir.
	stdout = regexp.MustCompile(`run record: .*`).ReplaceAllString(stdout, "run record: (path)")
	return stdout, csvs
}

// TestFairbenchSmoke: the table output is well-formed and the run record
// and CSVs land where asked.
func TestFairbenchSmoke(t *testing.T) {
	stdout, csvs := runOnce(t, "1")
	if !strings.Contains(stdout, "########## EXP-A6") {
		t.Fatalf("missing experiment header:\n%s", stdout)
	}
	if !strings.Contains(stdout, "expected shape") {
		t.Fatalf("table note missing:\n%s", stdout)
	}
	if !strings.Contains(stdout, "run record:") {
		t.Fatalf("run record line missing:\n%s", stdout)
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

// TestFairbenchBadFlag: unknown flags are a usage error, not a crash,
// while -h is plain usage output (exit 0).
func TestFairbenchBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for bad flag, want 2", code)
	}
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d for -h, want 0", code)
	}
}

// TestFairbenchRecordMirroredToRoot: with the default record path the
// BENCH_<date>.json lands both in -out (next to the CSVs) and in the
// working directory, where the trajectory tooling scans for it. An
// explicit -json path suppresses the mirror.
func TestFairbenchRecordMirroredToRoot(t *testing.T) {
	root := t.TempDir()
	t.Chdir(root)
	outDir := filepath.Join(root, "results")
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-small", "-seed", "1", "-only", "EXP-A6", "-out", outDir}, &out, &errb); code != 0 {
		t.Fatalf("fairbench exited %d: %s", code, errb.String())
	}
	inOut, err := filepath.Glob(filepath.Join(outDir, "BENCH_*.json"))
	if err != nil || len(inOut) != 1 {
		t.Fatalf("record missing from -out dir: %v %v", inOut, err)
	}
	atRoot, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(atRoot) != 1 {
		t.Fatalf("record not mirrored to the working directory: %v %v", atRoot, err)
	}
	a, _ := os.ReadFile(inOut[0])
	b, _ := os.ReadFile(atRoot[0])
	if !bytes.Equal(a, b) {
		t.Fatal("mirrored record differs from the -out record")
	}
	// An explicit -json path is authoritative: no extra copies.
	sub := filepath.Join(root, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Chdir(sub)
	out.Reset()
	if code := run([]string{"-small", "-seed", "1", "-only", "EXP-A6", "-out", outDir, "-json", filepath.Join(outDir, "rec.json")}, &out, &errb); code != 0 {
		t.Fatalf("fairbench exited %d: %s", code, errb.String())
	}
	if stray, _ := filepath.Glob(filepath.Join(sub, "BENCH_*.json")); len(stray) != 0 {
		t.Fatalf("-json run still mirrored a record: %v", stray)
	}
}

// goldenStdoutHash pins the full -small -seed 1 experiment suite's
// stdout (header lines stripped — they carry wall-clock seconds). The
// kernel-sharding PR verified this hash is unchanged by the envelope
// pool and the SelectInto scratch reuse: both are output-invariant. It
// was re-baselined once, from 2204ff69…, when per-node streams moved to
// the 16-byte randutil.NewStream generator — a lagged-Fibonacci source's
// state is its stream, so no stream-preserving shrink existed
// (PERFORMANCE.md "Determinism contract" has the before/after). If a
// change moves it on purpose, regenerate with:
//
//	go run ./cmd/fairbench -seed 1 -small -out '' -json '' | grep -v '^##########' | sha256sum
const goldenStdoutHash = "6914bd666c160a477ac81c5cd6c208ac29a947ad6c57054446bdc29162a4de69"

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
	if rc := run([]string{"-seed", "1", "-small", "-out", "", "-json", ""}, &stdout, &stderr); rc != 0 {
		t.Fatalf("fairbench exited %d: %s", rc, stderr.String())
	}
	sum := sha256.Sum256([]byte(stableStdout(stdout.String())))
	if got := hex.EncodeToString(sum[:]); got != goldenStdoutHash {
		t.Errorf("stdout hash %s, want %s — the fixed-seed experiment output changed; "+
			"if intentional, update goldenStdoutHash", got, goldenStdoutHash)
	}
}

// The emitted record must satisfy the benchrecord schema and carry flat
// numeric metrics — the regression test for the empty-trajectory bug,
// where every number was a string buried inside nested tables and the
// scan found records with nothing to plot.
func TestEmittedRecordValidatesWithMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-seed", "3", "-small", "-only", "EXP-A6", "-out", dir, "-json", path}
	if rc := run(args, &stdout, &stderr); rc != 0 {
		t.Fatalf("fairbench exited %d: %s", rc, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := benchrecord.Parse(data)
	if err != nil {
		t.Fatalf("emitted record fails its own schema: %v", err)
	}
	if r.Seed != 3 || !r.Small {
		t.Errorf("record coordinates (seed=%d, small=%v) don't match the run", r.Seed, r.Small)
	}
	if _, ok := r.Metrics["seconds.exp-a6"]; !ok {
		t.Errorf("no seconds.exp-a6 metric; keys: %v", metricKeys(r))
	}
	// Table metrics must be harvested too, or the trajectory is
	// timings-only.
	harvested := 0
	for k := range r.Metrics {
		if strings.HasPrefix(k, "exp-a6.") {
			harvested++
		}
	}
	if harvested == 0 {
		t.Errorf("no table metrics harvested; keys: %v", metricKeys(r))
	}
}

// The -huge tier must append EXP-HUGE with per-shard scaling metrics.
// Runs at test scale is not possible — the tier is pinned at N=100k —
// so this is gated behind -short like the golden hash.
func TestHugeTierRecordsScalingMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the N=100k tier")
	}
	path := filepath.Join(t.TempDir(), "record.json")
	var stdout, stderr bytes.Buffer
	// EXP-NONE matches no standard experiment: the huge tier runs alone.
	args := []string{"-seed", "2", "-only", "EXP-NONE", "-huge", "-shards", "1,2",
		"-out", "", "-json", path}
	if rc := run(args, &stdout, &stderr); rc != 0 {
		t.Fatalf("fairbench exited %d: %s", rc, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := benchrecord.Parse(data)
	if err != nil {
		t.Fatalf("huge record fails the schema: %v", err)
	}
	for _, k := range []string{
		"exp-huge.shards1.rounds_per_sec",
		"exp-huge.shards2.rounds_per_sec",
		"exp-huge.shards1.msgs_sent",
	} {
		if v, ok := r.Metrics[k]; !ok || v <= 0 {
			t.Errorf("metric %s missing or non-positive (%v); keys: %v", k, v, metricKeys(r))
		}
	}
	if n := r.Metrics["exp-huge.shards1.n"]; n < 100000 {
		t.Errorf("huge tier ran at N=%v, want >= 100000", n)
	}
}

func metricKeys(r *benchrecord.Record) []string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
