// Command bench is the repository's performance benchmark: one
// invocation runs one workload in a fresh process, checks its outputs,
// and prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// runCtx is what one invocation knows about itself.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	toy      bool // bench_test.go's sizes: a smoke test, not a measurement
	procs    int
	outDir   string
	tr       *tracer   // nil on untraced runs
	prof     *profiler // nil on untraced runs
}

func (rc *runCtx) setRun(name string) {
	if rc.tr != nil {
		rc.tr.run = name
	}
}

// traceBlock switches the tracing of a traced run on for even blocks
// and off for odd ones, so one run yields both sides of
// trace.overhead_frac. Tracing means span recording inside the block
// and the CPU profiler.
func (rc *runCtx) traceBlock(b int) bool {
	if !rc.traced {
		return false
	}
	on := b%2 == 0
	rc.tr.on = on
	if on {
		rc.prof.start()
	}
	return on
}

func (rc *runCtx) endTraceBlock() {
	if rc.traced {
		rc.prof.stop()
		rc.tr.on = true
	}
}

// envSnap is the runtime's own counters at a window boundary.
type envSnap struct {
	gcCPU    float64
	gcCycles uint64
	sched    *metrics.Float64Histogram
}

func takeEnv() envSnap {
	return envSnap{readFloat(rmGCCPU), readUint(rmGCCycles), schedHist()}
}

// envLayer fills the proc.* metrics for the window between two snapshots.
func envLayer(L map[string]float64, a, b envSnap, cpu time.Duration) {
	L["proc.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, cpu.Seconds())
	L["proc.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	L["proc.heap_live_mb"] = float64(readUint(rmHeapLive)) / (1 << 20)
	L["proc.sched_latency_us_p99"] = schedP99(a.sched, b.sched) * 1e6
	L["proc.goroutines"] = float64(readUint(rmGoroutines))
}

// phaseClock splits a run's wall time by phase, for sizing workloads
// against the time budget.
type phaseClock struct {
	t time.Time
	s map[string]float64
}

func (p *phaseClock) mark(name string) {
	now := time.Now()
	p.s[name] += now.Sub(p.t).Seconds()
	p.t = now
}

// setupSamples collects the constructions of one run: set-up time is
// reported as their median, split by phase per layer.
type setupSamples struct{ all, newCluster, subscribe []float64 }

func (s *setupSamples) add(all, newCluster, subscribe time.Duration) {
	s.all = append(s.all, all.Seconds())
	s.newCluster = append(s.newCluster, newCluster.Seconds())
	s.subscribe = append(s.subscribe, subscribe.Seconds())
}

func (s *setupSamples) into(r *result) {
	r.e2e["setup_s"], r.raw["setup_s"] = median(s.all), s.all
	r.layer["core.new_cluster_s"] = median(s.newCluster)
	r.layer["core.subscribe_s"] = median(s.subscribe)
	r.info["setups"] = len(s.all)
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one workload run produced.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	prof      map[string]float64 // <layer>.prof_self_frac; empty without go tool pprof
	raw       map[string][]float64
	info      map[string]any
	checks    []check
	attempted int64
	failed    int64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, prof: map[string]float64{},
		raw: map[string][]float64{}, info: map[string]any{}}
}

func (r *result) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{name, ok, detail})
}

// checkDeliveries records the three checks every workload makes on what
// its observers saw, once attempted and failed are set.
func (r *result) checkDeliveries(c *checks, floor float64) {
	r.check("no delivery to a peer whose filters do not match", c.strays.Load() == 0, fmt.Sprintf("%d strays", c.strays.Load()))
	r.check("no duplicate (peer, event) delivery", c.dups.Load() == 0, fmt.Sprintf("%d duplicates", c.dups.Load()))
	frac := 1 - ratio(float64(r.failed), float64(r.attempted))
	r.check(fmt.Sprintf("delivered fraction >= %.2f", floor), frac >= floor, fmt.Sprintf("%.5f of %d", frac, r.attempted))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

var workloads = map[string]func(*runCtx) (*result, error){
	"sim-fair":     func(rc *runCtx) (*result, error) { return runSim(rc, simFairSpec(rc.toy)) },
	"sim-huge":     func(rc *runCtx) (*result, error) { return runSim(rc, simHugeSpec(rc.toy)) },
	"live-chan":    func(rc *runCtx) (*result, error) { return runLive(rc, liveChanSpec(rc.toy)) },
	"live-udp-wan": func(rc *runCtx) (*result, error) { return runLive(rc, liveUDPWANSpec(rc.toy)) },
}

func main() {
	var (
		workload  = flag.String("workload", "", "sim-fair | sim-huge | live-chan | live-udp-wan")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 12, "length of the timed window")
		trace     = flag.Int("trace", 0, "1: traced run (spans, CPU profile, probes) reporting the per-layer metrics")
		out       = flag.String("out", filepath.Join("bench", "out"), "directory for <workload>.json, the span file and profiles")
		calibrate = flag.Bool("calibrate", false, "run every workload -runs times and print each end-to-end metric's spread")
		runs      = flag.Int("runs", 5, "runs per workload under -calibrate")
	)
	flag.Parse()
	if *calibrate {
		if err := runCalibrate(*runs, *seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runOne(*workload, *seed, *seconds, *trace == 1, false, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

// runOne runs one workload and writes the human-readable metric lines,
// the result file and, last, the one-line JSON summary.
func runOne(workload string, seed int64, seconds float64, traced, toy bool, outDir string, w io.Writer) error {
	run, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	// Sized to the machine, never beyond 4: the harness generates load
	// from one goroutine and the reference box has 2 cores.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rc := &runCtx{workload: workload, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), traced: traced, toy: toy, procs: procs, outDir: outDir}
	if traced {
		rc.tr = newTracer()
		rc.prof = &profiler{dir: outDir, name: workload}
	}
	res, err := run(rc)
	if err != nil {
		return err
	}
	if traced {
		res.prof = rc.prof.fold()
		if err := rc.tr.write(filepath.Join(outDir, workload+".trace.json")); err != nil {
			return err
		}
	}
	report(w, rc, res)
	if err := writeResultFile(rc, res); err != nil {
		return err
	}
	// The last line is the machine-readable summary: exactly the
	// end-to-end metrics untraced, exactly the per-layer metrics traced.
	defs, vals := e2eDefs, res.e2e
	if traced {
		defs, vals = layerDefs, res.layer
	}
	ms := map[string]any{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
			return fmt.Errorf("metric %s = %v: an end-to-end metric is positive, every metric finite", d.name, v)
		}
		ms[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{"correct": res.correct(), "attempted": res.attempted, "failed": res.failed, "metrics": ms})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if !res.correct() {
		return errIncorrect
	}
	return nil
}

func report(w io.Writer, rc *runCtx, res *result) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v GOMAXPROCS %d\n", rc.workload, rc.seed, rc.seconds.Seconds(), rc.traced, rc.procs)
	for _, d := range e2eDefs {
		k := d.name
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", k, res.e2e[k], d.unit)
		if raw := res.raw[k]; len(raw) > 0 {
			fmt.Fprintf(w, "  median of %d: %s", len(raw), fmtRaw(raw))
		}
		fmt.Fprintln(w)
	}
	for _, d := range layerDefs {
		k := d.name
		// An untraced run has no per-layer figures but the two host-timed
		// ones, which it prints for the eye (they are not in its summary).
		if !rc.traced && k != "proc.cpu_us_per_delivery" && k != "proc.deliveries_per_s" {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", k, res.layer[k], d.unit)
		if raw := res.raw[k]; len(raw) > 0 {
			fmt.Fprintf(w, "  median of %d: %s", len(raw), fmtRaw(raw))
		}
		layer, isEst := strings.CutSuffix(k, ".est_cpu_frac")
		if !isEst {
			layer, isEst = strings.CutSuffix(k, ".residual_cpu_frac")
		}
		if p, ok := res.prof[layer+".prof_self_frac"]; ok && isEst {
			fmt.Fprintf(w, "  profile %.4f", p)
		}
		fmt.Fprintln(w)
	}
	for _, k := range []string{"proc.prof_runtime_frac", "harness.prof_self_frac"} {
		if p, ok := res.prof[k]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s\n", k, p, "frac")
		}
	}
	ik := make([]string, 0, len(res.info))
	for k := range res.info {
		ik = append(ik, k)
	}
	sort.Strings(ik)
	for _, k := range ik {
		fmt.Fprintf(w, "  info %s = %v\n", k, res.info[k])
	}
	for _, c := range res.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-52s %s (%s)\n", c.Name, verdict, c.Detail)
	}
	fmt.Fprintf(w, "  operations attempted %d failed %d\n", res.attempted, res.failed)
}

func fmtRaw(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.5g", x)
	}
	return strings.Join(parts, " ")
}

// provenance records the machine and the code a result came from.
func provenance(rc *runCtx) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": rc.procs,
		"cpu_model":  cpuModel(),
		"git_commit": gitCommit(),
		"seed":       rc.seed,
		"seconds":    rc.seconds.Seconds(),
		"traced":     rc.traced,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// benchmark driver's) records "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeResultFile(rc *runCtx, res *result) error {
	name := rc.workload + ".json"
	if rc.traced {
		name = rc.workload + ".traced.json"
	}
	doc := map[string]any{
		"workload":   rc.workload,
		"provenance": provenance(rc),
		"end_to_end": res.e2e,
		"per_layer":  res.layer,
		"profile":    res.prof,
		"raw_blocks": res.raw,
		"info":       res.info,
		"checks":     res.checks,
		"attempted":  res.attempted,
		"failed":     res.failed,
		"correct":    res.correct(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(rc.outDir, name), append(b, '\n'), 0o644)
}
