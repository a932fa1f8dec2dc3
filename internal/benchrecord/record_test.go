package benchrecord

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validRecord() Record {
	return Record{
		Date:    "2026-08-08T00:00:00Z",
		Seed:    1,
		Small:   true,
		Metrics: map[string]float64{"exp-f1.static.ratio_jain": 0.61, "seconds.exp-f1": 1.5},
		Experiments: []Experiment{{
			ID:      "EXP-F1",
			Title:   "fairness",
			Seconds: 1.5,
			Tables: []Table{{
				ID:   "EXP-F1",
				Cols: []string{"variant", "ratio_jain"},
				Rows: [][]string{{"static", "0.610"}},
			}},
		}},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	r := validRecord()
	if err := r.Validate(); err != nil {
		t.Fatalf("well-formed record rejected: %v", err)
	}
}

func TestValidateRejectsDrift(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"bad date", func(r *Record) { r.Date = "yesterday" }},
		{"empty metrics", func(r *Record) { r.Metrics = nil }},
		{"non-canonical key", func(r *Record) { r.Metrics["Bad Key!"] = 1 }},
		{"no experiments", func(r *Record) { r.Experiments = nil }},
		{"empty id", func(r *Record) { r.Experiments[0].ID = "" }},
		{"negative seconds", func(r *Record) { r.Experiments[0].Seconds = -1 }},
		{"ragged row", func(r *Record) { r.Experiments[0].Tables[0].Rows[0] = []string{"static"} }},
		{"no columns", func(r *Record) { r.Experiments[0].Tables[0].Cols = nil }},
	}
	for _, tc := range cases {
		r := validRecord()
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validation passed, want failure", tc.name)
		}
	}
}

// TestValidateNamesFirstBadKeyInOrder: with several bad metrics the
// error must not depend on map iteration order — the sorted-first
// offender is named on every call.
func TestValidateNamesFirstBadKeyInOrder(t *testing.T) {
	r := validRecord()
	for _, k := range []string{"Zed Key", "Bad Key", "Mid Key", "Other Key"} {
		r.Metrics[k] = 1
	}
	want := r.Validate()
	if want == nil || !strings.Contains(want.Error(), `"Bad Key"`) {
		t.Fatalf("Validate = %v, want the sorted-first offender \"Bad Key\"", want)
	}
	for i := 0; i < 50; i++ {
		if got := r.Validate(); got.Error() != want.Error() {
			t.Fatalf("Validate error changed between calls: %q then %q", want, got)
		}
	}
}

func TestMetricKeyCanonicalises(t *testing.T) {
	cases := []struct {
		parts []string
		want  string
	}{
		{[]string{"EXP-F1", "static", "ratio_jain"}, "exp-f1.static.ratio_jain"},
		{[]string{"huge", "shards=4", "rounds_per_sec"}, "huge.shards4.rounds_per_sec"},
		{[]string{" Seconds ", "", "EXP-A3"}, "seconds.exp-a3"},
		{[]string{"a b/c"}, "a_b_c"},
	}
	for _, tc := range cases {
		if got := MetricKey(tc.parts...); got != tc.want {
			t.Errorf("MetricKey(%q) = %q, want %q", tc.parts, got, tc.want)
		}
	}
	// Canonical keys must be fixpoints (Validate depends on this).
	for _, k := range []string{"exp-f1.static.ratio_jain", "total_seconds", "huge.shards4.rounds_per_sec"} {
		if MetricKey(k) != k {
			t.Errorf("canonical key %q is not a MetricKey fixpoint (got %q)", k, MetricKey(k))
		}
	}
}

func TestHarvestTableFoldsNumericCells(t *testing.T) {
	m := map[string]float64{}
	HarvestTable(m, "EXP-F1", Table{
		Cols: []string{"variant", "ratio_jain", "note"},
		Rows: [][]string{
			{"static", "0.610", "baseline"},
			{"aimd", "0.905", "adaptive"},
		},
	})
	if got := m["exp-f1.static.ratio_jain"]; got != 0.610 {
		t.Errorf("static ratio_jain = %v, want 0.610", got)
	}
	if got := m["exp-f1.aimd.ratio_jain"]; got != 0.905 {
		t.Errorf("aimd ratio_jain = %v, want 0.905", got)
	}
	// Non-numeric cells and the label column itself are skipped.
	if len(m) != 2 {
		t.Errorf("harvested %d metrics, want 2: %v", len(m), m)
	}
}

// TestCheckedInRecordsParse is the drift gate of the bench trajectory:
// every BENCH_*.json checked in at the repository root and under
// results/ must parse against the benchrecord schema, with a non-empty
// flat metrics map. This is the regression test for the empty-trajectory
// bug, where records existed but carried no top-level numeric metrics.
func TestCheckedInRecordsParse(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../BENCH_*.json", "../../results/BENCH_*.json"} {
		got, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, got...)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in BENCH_*.json found at the repo root or results/ — the trajectory is empty")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Parse(data)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: no trajectory metrics", filepath.Base(p))
		}
	}
}
