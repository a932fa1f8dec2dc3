// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// Most of the repo's correctness story is enforced at runtime (the
// golden fixed-seed hash, AllocsPerRun pins, the race detector,
// goroutine-settle tests); the analyzers under rules/ cover the
// invariants no dynamic test owns — see LINTING.md for the trial that
// decided which. The x/tools module itself is deliberately not a
// dependency — the module has zero third-party requirements and the
// toolchain image is offline — so this package carries the three pieces
// the real framework would provide: the Analyzer/Pass/Diagnostic types
// (this file), a package loader built on `go list -export` plus the
// stdlib gc importer (load.go), and a driver that applies the
// //fair:ignore suppression vocabulary and verifies every suppression
// is justified (run.go). Fixture tests run through fixture.go, which
// mirrors analysistest's `// want "regex"` convention.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named rule: a function run once per package.
type Analyzer struct {
	// Name identifies the rule in output and in //fair:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant the rule
	// guards, shown by `fairvet -list`.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass connects one Analyzer run to one loaded package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path (fixtures get their fixture
	// module path, e.g. "fixtures/determinism").
	Path string

	diags *[]Diagnostic
}

// Report records a finding at pos. Category subdivides a rule for
// targeted escape hatches (the determinism rule's "wallclock" category
// is matched by //fair:wallclock comments); it may be empty.
func (p *Pass) Report(pos token.Pos, category, message string) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Rule:     p.Analyzer.Name,
		Category: category,
		Message:  message,
	})
}

// Reportf is Report with fmt.Sprintf formatting.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.Report(pos, category, fmt.Sprintf(format, args...))
}

// A Diagnostic is one finding before suppression filtering.
type Diagnostic struct {
	Pos      token.Pos
	Rule     string
	Category string
	Message  string
}

// A Finding is one reportable result after suppression filtering, with
// the position resolved for printing.
type Finding struct {
	Position token.Position
	Rule     string
	Category string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Rule, f.Message)
}
