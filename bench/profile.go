package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// profiler captures one CPU profile per traced block; fold merges them.
type profiler struct {
	dir, name string
	files     []string
	cur       *os.File
	flushed   chan struct{} // closed when the last stop has written its profile
}

func (p *profiler) start() {
	p.wait()
	path := filepath.Join(p.dir, fmt.Sprintf("%s.%d.pprof", p.name, len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return
	}
	p.cur = f
	p.files = append(p.files, path)
}

// stop ends the current profile without waiting for it: StopCPUProfile
// blocks for up to a profiler tick (100 ms or more), and a live
// workload's generator would stall for as long and be late with the
// next block's first events.
func (p *profiler) stop() {
	if p.cur == nil {
		return
	}
	f := p.cur
	p.cur, p.flushed = nil, make(chan struct{})
	go func(done chan struct{}) {
		pprof.StopCPUProfile()
		f.Close()
		close(done)
	}(p.flushed)
}

func (p *profiler) wait() {
	if p.flushed != nil {
		<-p.flushed
	}
}

// layerOf maps a function's package to the layer it is charged to.
func layerOf(fn string) string {
	const prefix = "fairgossip/internal/"
	if rest, ok := strings.CutPrefix(fn, prefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	return "proc" // runtime, syscalls, the standard library
}

// fold returns, per layer, the share of CPU samples whose innermost
// frame inside this repository lies in that layer's package, from the
// stacks go tool pprof -raw lists. Runtime and library frames are
// charged to the layer that called them (a map access, an allocation or
// a channel send made by a layer is that layer's cost, and is in its
// probe's ns/op too); samples with no repository frame at all —
// background GC, the scheduler, the netpoller — are proc.prof_runtime_frac.
// It returns nothing when go tool pprof cannot be run, so the metrics
// are left out instead of printed as zeros.
func (p *profiler) fold() map[string]float64 {
	p.wait()
	if len(p.files) == 0 {
		return nil
	}
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-raw"}, p.files...)...).Output()
	if err != nil {
		return nil
	}
	// -raw prints a Samples section ("count value: loc loc ...", leaf
	// first) and a Locations section ("id: addr M=n func file:line s=n",
	// followed by one indented "func file:line s=n" line per frame the
	// first was inlined into).
	type sample struct {
		value int64
		locs  []string
	}
	var samples []sample
	funcs := map[string][]string{} // location id -> functions, innermost first
	section, loc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "Samples:", "Locations", "Mappings":
			section = f[0]
			continue
		}
		switch section {
		case "Samples:":
			// The units line ("samples/count cpu/nanoseconds") has no colon field.
			if len(f) >= 3 && strings.HasSuffix(f[1], ":") {
				var v int64
				if _, err := fmt.Sscan(strings.TrimSuffix(f[1], ":"), &v); err == nil {
					samples = append(samples, sample{v, f[2:]})
				}
			}
		case "Locations":
			if strings.HasSuffix(f[0], ":") && len(f) >= 4 {
				loc = strings.TrimSuffix(f[0], ":")
				funcs[loc] = append(funcs[loc], f[3])
			} else if loc != "" {
				funcs[loc] = append(funcs[loc], f[0])
			}
		}
	}
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.value
		owner := "proc"
	stack:
		for _, l := range s.locs {
			for _, fn := range funcs[l] {
				if o := layerOf(fn); o != "proc" {
					owner = o
					break stack
				}
			}
		}
		by[owner] += s.value
	}
	if total == 0 {
		return nil
	}
	res := map[string]float64{}
	for _, l := range layers {
		res[l+".prof_self_frac"] = float64(by[l]) / float64(total)
	}
	res["proc.prof_runtime_frac"] = float64(by["proc"]) / float64(total)
	res["harness.prof_self_frac"] = float64(by["harness"]) / float64(total)
	return res
}
