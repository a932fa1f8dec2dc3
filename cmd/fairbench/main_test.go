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
// publication, and every entry marked "first H hops" (the same sixteen)
// once more when the hop went on the wire and the first
// protocol.EagerHops hops began to leave at once, which adds and moves
// partner draws at every relay (PERFORMANCE.md "The first H hops").
// EXP-T5, marked "live seed", moved once more when its rejoiners began to
// bootstrap through the lowest-numbered other node that is up
// (core.Cluster.Rejoin), not always node 0, a light node that was itself
// down or the rejoiner in 11 of 44 static rejoins: static rage quits
// 65 → 59, light delivery 0.760 → 0.812. If a change moves an entry on
// purpose, regenerate with:
//
//	go run ./cmd/fairbench -seed 1 -small -out '' > /tmp/fb.txt && cd "$(mktemp -d)" && awk '/^##########/{id=$2; next} id{print > id}' /tmp/fb.txt && sha256sum EXP-*
var goldenStdoutHash = map[string]string{
	"EXP-A1": "e2420b87f2ffec50ca0c46f5f3c53ea708bd02cc4a0624faac807a900c287146", // first two hops; first H hops
	"EXP-A2": "0c402c0171c2817e0a5b9aa302e6f9bdba60355145bca3c68746e345b834454c", // first two hops; first H hops
	"EXP-A3": "140b37f4f78e6a98c8fc2511d9973fdf5092e9f27413438a21df80126e397042", // first two hops; first H hops
	"EXP-A4": "7ddacef33f68a8602887490e562319a5f135b5e0e60a23d2215a767a78315384", // first two hops; first H hops
	"EXP-A5": "3a5b10e87d6b9a8ec41f21c9f3ad4272c65fc3acdc7e537915443241791ad58c", // first two hops; first H hops
	"EXP-A6": "b15b552ee1d0581c7aaab79847a07b75cdfb4b4f12343c90a2a509714071fbe4", // one byte model: padding carries a 4-byte length; first two hops; first H hops
	"EXP-F1": "a03c07cb118a225e556c2b997a76ceac6c4f47a009c34fd891493404e43e6503", // first two hops; first H hops
	"EXP-F2": "21dd744fbe6143540e2ca0a181132c7354f19f796c8aceea56dbd72ac24da664", // one byte model: topic gossip: ads count; no self-ack; first two hops; first H hops
	"EXP-F3": "efb3855e7b057536ff94f6f67bfc1f428f59bd68afbb6909b8d8e4b4745da198", // first two hops; first H hops
	"EXP-F4": "cdd944d4f4cb3f46d75f9ddb931480526204e982e5363087851b76d28f475fa5", // first two hops; first H hops
	"EXP-T1": "42ca5f84cc976e6c3989d3698b687d4bfb06583643708a006c230f57d1c79e45", // one byte model: topic gossip and walks; no self-ack; first two hops; first H hops
	"EXP-T2": "e243640362e8e1d96b923a1334a92d5cbd4cd5617bf945c975706c757feab38c",
	"EXP-T3": "f605e91444e9cd8a8a2cb73a4375c4e7421ec5bce9e04027216fd86c1393fb23", // one byte model: walks, acks, ads count; first two hops; first H hops
	"EXP-T4": "b38472dbcd6096f880bc9964e367535d8f10bd365251c4e26ac8ff524df0f638", // first two hops; first H hops
	"EXP-T5": "10fdd0725022094d1d5255ece860d29f89427da0fcfdf90578548e811502aecf", // first two hops; first H hops; live seed
	"EXP-X1": "f6d5186e7d777eeda07315965e862ef4994966a45d96f42993417ca7d811c61e", // one byte model: digests and pulls: 10-byte header; first two hops; first H hops
	"EXP-X2": "44edc9c908b9f0f38f272904b2c5d51dcc90ebb8c81910ece7b1fe275f7bd762", // one byte model: fingerprint ads count; first two hops; first H hops
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
