// Package benchrecord defines the schema of the BENCH_<date>.json run
// records fairbench emits and the performance-trajectory tooling scans.
//
// The original records buried every numeric value as a formatted string
// inside nested result tables, so trajectory scans of the repository
// root found records but no plottable numbers — an empty trajectory.
// The schema now requires a top-level flat `metrics` map (metric name →
// float64) alongside the human-oriented tables: emitters must populate
// it, and ValidateFile is run by `go test` over every checked-in record
// so schema drift fails the build instead of silently emptying the
// trajectory again.
package benchrecord

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Record is one fairbench run: replay coordinates (seed, scale), the
// flat numeric metrics the trajectory plots, and the per-experiment
// tables for humans.
type Record struct {
	Date  string `json:"date"`
	Seed  int64  `json:"seed"`
	Small bool   `json:"small"`
	// Metrics is the trajectory surface: flat metric name → value.
	// Names are lowercase dotted paths, e.g. "exp-f1.aimd.ratio_jain",
	// "seconds.exp-f1", "huge.rounds_per_sec.shards4".
	Metrics     map[string]float64 `json:"metrics"`
	Experiments []Experiment       `json:"experiments"`
}

// Experiment is one experiment's run: identity, wall-clock, and tables.
type Experiment struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Tables  []Table `json:"tables"`
}

// Table mirrors experiment.Table's JSON shape (the package stays
// dependency-free so any tool can import it for parsing alone).
type Table struct {
	ID    string
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// MetricKey builds a canonical metrics-map key from path segments:
// lowercased, spaces and slashes collapsed to '_', empty segments
// dropped, joined with '.'.
func MetricKey(parts ...string) string {
	clean := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.ToLower(strings.TrimSpace(p))
		p = strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
				return r
			case r == ' ', r == '/':
				return '_'
			default:
				return -1
			}
		}, p)
		if p != "" {
			clean = append(clean, p)
		}
	}
	return strings.Join(clean, ".")
}

// HarvestTable folds every numeric cell of a table into metrics, keyed
// <prefix>.<row label>.<column>; the first column is treated as the row
// label and never harvested itself. Non-numeric cells are skipped.
func HarvestTable(metrics map[string]float64, prefix string, t Table) {
	for _, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		label := row[0]
		for i := 1; i < len(row) && i < len(t.Cols); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			metrics[MetricKey(prefix, label, t.Cols[i])] = v
		}
	}
}

// Validate checks a parsed record against the schema contract.
func (r *Record) Validate() error {
	if _, err := time.Parse(time.RFC3339, r.Date); err != nil {
		return fmt.Errorf("date %q is not RFC3339: %v", r.Date, err)
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("metrics map is empty: the record contributes nothing to the trajectory")
	}
	// Sorted, so a record with several bad metrics always names the
	// same one first.
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		if k == "" || k != MetricKey(k) {
			return fmt.Errorf("metric key %q is not canonical (want %q)", k, MetricKey(k))
		}
		if v := r.Metrics[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is not finite", k)
		}
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("no experiments recorded")
	}
	for _, e := range r.Experiments {
		if e.ID == "" {
			return fmt.Errorf("experiment with empty id")
		}
		if e.Seconds < 0 {
			return fmt.Errorf("experiment %s: negative wall-clock %f", e.ID, e.Seconds)
		}
		for ti, t := range e.Tables {
			if len(t.Cols) == 0 {
				return fmt.Errorf("experiment %s table %d: no columns", e.ID, ti)
			}
			for ri, row := range t.Rows {
				if len(row) != len(t.Cols) {
					return fmt.Errorf("experiment %s table %d row %d: %d cells for %d columns",
						e.ID, ti, ri, len(row), len(t.Cols))
				}
			}
		}
	}
	return nil
}

// Parse unmarshals and validates one record blob.
func Parse(data []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("not a bench record: %v", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
