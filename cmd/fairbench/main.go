// Command fairbench regenerates every experiment in experiment.All() as
// text tables and CSV files — the reproduction of all figures and
// quantitative claims of the paper (PAPER.md). It measures the protocol,
// not the clock: performance is bench/'s job (bench/README.md).
//
// Usage:
//
//	fairbench [-seed N] [-small] [-out results/] [-only EXP-F1,EXP-A3]
//
// Exit status is 2 on usage errors, including an -only ID that is not in
// the catalogue.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fairgossip/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: explicit args, writers, exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed   = fs.Int64("seed", 1, "random seed (same seed = identical output)")
		small  = fs.Bool("small", false, "bench-scale parameters (fast)")
		outDir = fs.String("out", "results", "directory for CSV output (empty = no CSV)")
		only   = fs.String("only", "", "comma-separated experiment IDs to run (e.g. EXP-F1,EXP-A3)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	specs := experiment.All()
	known := map[string]bool{}
	for _, spec := range specs {
		known[spec.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !known[id] {
			fmt.Fprintf(stderr, "fairbench: unknown experiment %q; the catalogue is:\n", id)
			for _, spec := range specs {
				fmt.Fprintf(stderr, "  %s\t%s\n", spec.ID, spec.Title)
			}
			return 2
		}
		want[id] = true
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "fairbench: %v\n", err)
			return 1
		}
	}
	opts := experiment.Options{Seed: *seed, Small: *small}
	for _, spec := range specs {
		if len(want) > 0 && !want[spec.ID] {
			continue
		}
		start := time.Now()
		tables := spec.Run(opts)
		fmt.Fprintf(stdout, "\n########## %s — %s  (%.1fs)\n\n", spec.ID, spec.Title, time.Since(start).Seconds())
		for ti, t := range tables {
			fmt.Fprintln(stdout, t.String())
			if *outDir == "" {
				continue
			}
			name := fmt.Sprintf("%s_%d.csv", strings.ToLower(strings.ReplaceAll(spec.ID, "-", "_")), ti)
			if err := os.WriteFile(filepath.Join(*outDir, name), []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "fairbench: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
