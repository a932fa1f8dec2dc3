// Package experiment is the benchmark harness: one function per
// figure/claim of the paper (All() is the index, PAPER.md the source),
// each returning text/CSV tables whose *shape* is compared against the
// paper's assertions. All experiments are deterministic in the seed and
// scale down for `go test -bench`.
package experiment

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is one result table: a title, the paper's expectation for the
// shape ("Note"), column headers, and rows.
type Table struct {
	ID    string // experiment id, e.g. "EXP-F1"
	Title string
	Note  string // the paper's expected shape, quoted/paraphrased
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row, formatting each value: floats with 3 decimals,
// everything else via %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = strconv.FormatFloat(x, 'f', 3, 64)
		case float32:
			row[i] = strconv.FormatFloat(float64(x), 'f', 3, 64)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders an aligned text table.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&sb, "   expected shape: %s\n", t.Note)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRec := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeRec(t.Cols)
	for _, row := range t.Rows {
		writeRec(row)
	}
	return sb.String()
}

// Spec describes a runnable experiment for the registry.
type Spec struct {
	ID    string
	Title string
	Run   func(opts Options) []Table
}

// Options scales and seeds an experiment run.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Small selects bench-sized parameters (fast); false = paper-scale.
	Small bool
}

// All returns the registry of every experiment, in the paper's order:
// figures, §4 baselines, then ablations and extensions.
func All() []Spec {
	return []Spec{
		{"EXP-F1", "Fairness ratio equalisation (Fig. 1)", ExpF1},
		{"EXP-F2", "Topic-based accounting (Fig. 2)", ExpF2},
		{"EXP-F3", "Expressive levers: fanout & message size (Fig. 3)", ExpF3},
		{"EXP-F4", "Basic push gossip reliability (Fig. 4)", ExpF4},
		{"EXP-T1", "Scribe baseline unfairness (§4.1)", ExpT1},
		{"EXP-T2", "DAM supertopic broker effect (§4.2)", ExpT2},
		{"EXP-T3", "Subscription maintenance burden (§5.1)", ExpT3},
		{"EXP-T4", "Load balancing is not fairness (§3.1–3.2)", ExpT4},
		{"EXP-T5", "Unfairness-driven churn loop (§1/§6)", ExpT5},
		{"EXP-A1", "Fanout convergence (§5.2 Q1)", ExpA1},
		{"EXP-A2", "Batch convergence (§5.2 Q2)", ExpA2},
		{"EXP-A3", "Minimum fanout requirement (§5.2 Q3)", ExpA3},
		{"EXP-A4", "Message size requirement & policies (§5.2 Q4)", ExpA4},
		{"EXP-A5", "Robustness under adaptation (§5.2 Q5)", ExpA5},
		{"EXP-A6", "Bias resistance via audit (§5.2 Q6)", ExpA6},
		// Extensions beyond the paper's core sketch (exps_extensions.go).
		{"EXP-X1", "Push-pull anti-entropy repair (extension)", ExpX1},
		{"EXP-X2", "Semantic partner bias vs interest sparsity (extension)", ExpX2},
	}
}
