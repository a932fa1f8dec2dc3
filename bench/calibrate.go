package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"fairgossip/internal/stats"
)

var workloadOrder = []string{"sim-fair", "sim-huge", "live-chan", "live-udp-wan"}

// exactOnSim are the end-to-end metrics that are counts or sim-time
// figures on the simulator workloads: functions of the seed alone.
// (allocs_per_delivery is a runtime count: it repeats to ~0.1 %, not
// exactly.)
var exactOnSim = map[string]bool{
	"deliver_ms_p50": true, "deliver_ms_p99": true,
	"wire_bytes_per_delivery": true, "ratio_jain": true, "peak_rss_mb": false,
}

type summaryLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCalibrate runs every workload runs times back to back, each in a
// fresh process of this binary with seeds seed, seed+1, ..., and prints
// per (metric, workload) the spread the driver computes (interquartile
// range / median), the full range / median, and the bound each implies:
// max(floor, 2 x range/median), floor 0.01 for exact metrics and 0.05
// for timed ones. BENCHMARK.json has one bound per metric, so it takes
// the largest over the workloads (the driver caps it at 0.25).
func runCalibrate(runs int, seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{} // metric -> workload -> values
	for _, wl := range workloadOrder {
		for r := 0; r < runs; r++ {
			cmd := exec.Command(self, "-workload", wl, "-seed", fmt.Sprint(seed+int64(r)), "-seconds", fmt.Sprint(seconds), "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl, r, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var s summaryLine
			if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
				return fmt.Errorf("%s run %d: %w", wl, r, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d failed %d\n", wl, seed+int64(r), s.Attempted, s.Failed)
			for name, m := range s.Metrics {
				if vals[name] == nil {
					vals[name] = map[string][]float64{}
				}
				vals[name][wl] = append(vals[name][wl], m.Value)
			}
		}
	}
	fmt.Printf("%-26s %-13s %12s %9s %9s %9s\n", "metric", "workload", "median", "iqr/med", "range/med", "bound")
	for _, d := range e2eDefs {
		worst := 0.0
		for _, wl := range workloadOrder {
			q := stats.Quantiles(vals[d.name][wl], 0, 0.25, 0.5, 0.75, 1)
			med := q[2]
			iqr := ratio(q[3]-q[1], med)
			rng := ratio(q[4]-q[0], med)
			floor := 0.05
			if exactOnSim[d.name] && strings.HasPrefix(wl, "sim-") {
				floor = 0.01
			}
			bound := min(max(floor, 2*rng), 0.25)
			worst = max(worst, bound)
			fmt.Printf("%-26s %-13s %12.6g %9.4f %9.4f %9.3f\n", d.name, wl, med, iqr, rng, bound)
		}
		fmt.Printf("%-26s %-13s %42.3f\n", d.name, "=> bound", worst)
	}
	return nil
}
