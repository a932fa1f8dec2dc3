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
// self-send) with entries drawn from its own stream. Every entry marked
// "first two hops" moved once when an event's first two hops began to
// leave at once — the publisher's push on Publish, its receivers' relay
// on receipt — which moves every partner draw after the first
// publication (PERFORMANCE.md "The first two hops"). If a change moves
// an entry on purpose, regenerate with:
//
//	go run ./cmd/fairbench -seed 1 -small -out '' > /tmp/fb.txt && cd "$(mktemp -d)" && awk '/^##########/{id=$2; next} id{print > id}' /tmp/fb.txt && sha256sum EXP-*
var goldenStdoutHash = map[string]string{
	"EXP-A1": "273ac1de1fb74b9677424bef649e8f4958c965daf662a0a4e26f7bef8f283d17", // first two hops
	"EXP-A2": "1422621e8fb056dc43a69fd87b8221f1d6900c71299dae3e166e58ffc8fb0dad", // first two hops
	"EXP-A3": "8a40d0a8f12c81c9c87f6ec1211a05081a25acf586575da8e95bba76afc2e5a1", // first two hops
	"EXP-A4": "1192b84f0cbd6836b80556bc758ac3651ec6376b34e31571a3f565f2e194f089", // first two hops
	"EXP-A5": "6b1e0b1c68672f61e13deb549f9e7031fee89d99922397e08aa7b1e77251e1c3", // first two hops
	"EXP-A6": "6d2dd1fe45abc895f118925a26537d743dc01248aa7779361735589c89089664", // one byte model: padding carries a 4-byte length; first two hops
	"EXP-F1": "0e88eebe6488a9b4435fea6ff1c9d5e14bbbe2be970e6b7efabdc9919c00b5d4", // first two hops
	"EXP-F2": "ae8adae7805df2c1b8f9a7e5e6f95e138e690db27abc22b9816e080b261f4fae", // one byte model: topic gossip: ads count; no self-ack; first two hops
	"EXP-F3": "d9169e1c0cc3be96fc1523d3e7820f27396e57866c374df9f216c15ab7f6b31c", // first two hops
	"EXP-F4": "ba533a236e061cab0fcd2f4dae1ae1667e2b7ca7b97db14ceb6e83857a7668a2", // first two hops
	"EXP-T1": "6901fc6c5ce7ec4dcbfc75bf244b62ac50b510b507345a863e95b10e0d80af7e", // one byte model: topic gossip and walks; no self-ack; first two hops
	"EXP-T2": "e243640362e8e1d96b923a1334a92d5cbd4cd5617bf945c975706c757feab38c",
	"EXP-T3": "915ad4d1eba1904a6e8e86d17c881016dd8485332678920f84cb8be77a357cad", // one byte model: walks, acks, ads count; first two hops
	"EXP-T4": "543deea87e95e13e1891e6f67a8e9de1dc47b6c60081aa6044db65402959e69d", // first two hops
	"EXP-T5": "7dade2781da7cdcb1320c490f3056617cf37f18e795e6eb5566353b8636761dd", // first two hops
	"EXP-X1": "5784cae0619bd1f6fa0f4f569a9136671d83f003075b17f5cead309d03db4b16", // one byte model: digests and pulls: 10-byte header; first two hops
	"EXP-X2": "d038b3943d5ca17a47e5903ef24739f3e3eb522bbf9e98572be7eea42a915f03", // one byte model: fingerprint ads count; first two hops
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
