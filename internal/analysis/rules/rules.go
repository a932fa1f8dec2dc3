// Package rules holds fairvet's project-law analyzers: the invariant
// (fixed-seed determinism) whose only enforcer is a review-time
// diagnostic. Invariants a dynamic test already pins (allocation-free
// hot paths, goroutine shutdown, lock discipline, buffer ownership,
// copy-on-write publication, drop conservation) are deliberately not
// here; LINTING.md records the trials behind that split.
package rules

import (
	"go/ast"
	"go/types"

	"fairgossip/internal/analysis"
)

// All returns every fairvet analyzer, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
	}
}

// builtinName returns the builtin's name when call invokes a Go
// builtin (append, make, copy, delete, ...), else "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
