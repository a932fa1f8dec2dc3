package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestNamesMatchBenchmarkJSON pins the metric tables and the workload
// list to BENCHMARK.json: same names, units and directions, same order.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadOrder[i])
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if (metricDef{g.Name, g.Unit, g.Better}) != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, harness %v", kind, i, g, want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eDefs)
	same("per_layer", spec.PerLayer, layerDefs)
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced, and checks the summary line: the run is correct, and exactly
// the named metrics are there, finite, and non-zero where the contract
// says a metric is never 0.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloadOrder {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				if err := runOne(wl, 7, 0.6, traced, true, dir, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var s summaryLine
				if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				if !s.Correct || s.Attempted < 1 {
					t.Errorf("correct %v attempted %d", s.Correct, s.Attempted)
				}
				defs := e2eDefs
				if traced {
					defs = layerDefs
				}
				if len(s.Metrics) != len(defs) {
					t.Errorf("summary has %d metrics, want %d", len(s.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := s.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, must be positive", d.name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(dir + "/" + wl + ".trace.json"); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}
