// Command fairvet is the project's vet: a multichecker running the
// fairgossip-specific analyzer for the invariant no dynamic test owns,
// fixed-seed determinism, and the audit of its //fair: escape hatches.
// `make lint` runs it over the whole tree; a clean run means zero
// unsuppressed findings and a verified justification on every
// //fair:ignore escape hatch.
//
// Usage:
//
//	fairvet [-list] [packages]
//
// Packages default to ./... relative to the current directory. Exit
// status is 1 when findings remain, 2 on load or usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fairgossip/internal/analysis"
	"fairgossip/internal/analysis/rules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the rule catalogue and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		printCatalogue(stdout)
		return 0
	}

	pkgs, err := analysis.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "fairvet: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, rules.All())
	if err != nil {
		fmt.Fprintf(stderr, "fairvet: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "fairvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func printCatalogue(w io.Writer) {
	for _, a := range rules.All() {
		fmt.Fprintf(w, "%s\n\t%s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "%s\n\t%s\n", analysis.DirectiveRule,
		"Bookkeeping for the //fair: vocabulary itself: unknown directives, ignores naming unknown rules, missing justifications, and stale ignores that suppress nothing.")
}
