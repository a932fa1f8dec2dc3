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

// goldenStdoutHash pins the -small -seed 1 suite's stdout one experiment
// at a time: the sha256 of the lines under each "##########" header (the
// header itself carries wall-clock seconds), so a change that means to
// move one table proves it moved no other. Until PR 25 this was one hash
// of the whole stdout, re-baselined four times, each with its reason in
// PERFORMANCE.md "Determinism contract": per-node streams moving to the
// 16-byte randutil.NewStream (from 2204ff69…), retirement after 2 × batch
// returned copies (gossip.Buffer.Duplicate, from 6914bd66…), the detector
// under every Cyclon cluster and kindJoin introductions (from b26cd5b0…,
// EXP-T5 and EXP-A5 only), and the last whole-suite hash, f69eb8b8…, from
// which this table was split at PR 25's parent. PR 25 then moved three
// entries: EXP-F4 and EXP-X1, whose classic baseline runs on core.Cluster
// instead of its own peer, and EXP-T5, whose static variant rejoins node 0
// through itself — a peer no longer sends itself membership messages
// (protocol.FuzzPeerInputs found it). The six entries marked "one byte
// model" moved once when the simulator began charging what internal/wire
// encodes: the parts only it sends now pay for their length fields
// (PERFORMANCE.md "One byte model"). The two marked "no self-ack" moved
// once more when a subscription walk that wanders back to its originator
// began to end there, instead of the originator acking itself (a charged
// self-send) with entries drawn from its own stream. If a change moves an
// entry on purpose, regenerate with:
//
//	go run ./cmd/fairbench -seed 1 -small -out '' > /tmp/fb.txt && cd "$(mktemp -d)" && awk '/^##########/{id=$2; next} id{print > id}' /tmp/fb.txt && sha256sum EXP-*
var goldenStdoutHash = map[string]string{
	"EXP-A1": "09273147e93cdca01aea567d615f134d373051082e8f3e28be25fefa8a5a8e25",
	"EXP-A2": "4388175ec2b8fc3cf21e605d62679d317131b4f31c3a912ba93fffd139adbff6",
	"EXP-A3": "6fbd34957a62b7453099c2a23524115bf9c29b72a59a27b4a9c1314453e8bb09",
	"EXP-A4": "b44f5aaf83cbd6d29d6deaff1973626aa3887019bb560104ca3d0a3930fba82b",
	"EXP-A5": "5743c7444ffdca60b1adcd1db537d5dce6d87ef99a44a97dcd0cb089724d6c06",
	"EXP-A6": "51fcb441cfae1bc9f7f035dcd5c820ea10b212bd728ba0ccb386be1b56ef570f", // one byte model: padding carries a 4-byte length
	"EXP-F1": "1b9deac4b746bbb22e0676206f78007302caf8b148ad6d3c877784e4e33b4ec4",
	"EXP-F2": "46153c7f7b2eb131368dd157ebcbb0e3da34ac518dbdbf2792a8a92f5e6ac2d5", // one byte model: topic gossip: ads count; no self-ack
	"EXP-F3": "8c87800a6461e308dd6ec3341a39a79bcc569c7f2b3c574d3de6f915c9404384",
	"EXP-F4": "3b118efbc94327444be86551f05843ac0b94854609ba46121c0927fe6ed6da7f",
	"EXP-T1": "f560791d42f6bdb7ea17e84ea35605733d92fc2ff2699c6e0ec3dc0d2655e75a", // one byte model: topic gossip and walks; no self-ack
	"EXP-T2": "e243640362e8e1d96b923a1334a92d5cbd4cd5617bf945c975706c757feab38c",
	"EXP-T3": "1ff7ed8aa32f75b113929ee6c8127ed5177f7538df3392882443a692cc9a0253", // one byte model: walks, acks, ads count
	"EXP-T4": "c3c945459808577cd6f5fa3630ab0177dc6c1f50a950540481be11be115d09d2",
	"EXP-T5": "b50652e45f5ee1715a457047bb6a87967a9734672e2eb19d969c94df275d20f5",
	"EXP-X1": "11e7c3116cb0b74e01aac933fc095126dbee62094d78721b2d8d5fc8257a3233", // one byte model: digests and pulls: 10-byte header
	"EXP-X2": "b7ad4571af2fbf0c63810b9ec999697bb8dcab6da226ce4a6428d1c7359bee13", // one byte model: fingerprint ads count
}

// stdoutByExperiment splits fairbench's stdout into each experiment's
// lines, mirroring the awk in the regeneration command: a header line
// names the experiment and is dropped, every later line up to the next
// header is kept with its newline.
func stdoutByExperiment(out string) map[string]string {
	parts := map[string]*strings.Builder{}
	var cur *strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "########## "); ok {
			id, _, _ := strings.Cut(rest, " ")
			cur = &strings.Builder{}
			parts[id] = cur
			continue
		}
		if cur != nil {
			cur.WriteString(line)
			cur.WriteByte('\n')
		}
	}
	texts := make(map[string]string, len(parts))
	for id, b := range parts {
		texts[id] = b.String()
	}
	return texts
}

func TestGoldenStdoutHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full -small experiment suite")
	}
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-seed", "1", "-small", "-out", ""}, &stdout, &stderr); rc != 0 {
		t.Fatalf("fairbench exited %d: %s", rc, stderr.String())
	}
	got := stdoutByExperiment(stdout.String())
	for id := range got {
		if _, ok := goldenStdoutHash[id]; !ok {
			t.Errorf("%s ran but has no golden hash — add its entry", id)
		}
	}
	ids := make([]string, 0, len(goldenStdoutHash))
	for id := range goldenStdoutHash {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		text, ok := got[id]
		if !ok {
			t.Errorf("%s has a golden hash but did not run", id)
			continue
		}
		sum := sha256.Sum256([]byte(text))
		if h := hex.EncodeToString(sum[:]); h != goldenStdoutHash[id] {
			t.Errorf("%s stdout hash %s, want %s — its fixed-seed output changed; if intentional, update its entry:\n%s",
				id, h, goldenStdoutHash[id], text)
		}
	}
}
