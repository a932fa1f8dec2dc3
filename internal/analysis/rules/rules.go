// Package rules holds fairvet's project-law analyzers: the two
// invariants (fixed-seed determinism, exact drop conservation) whose only
// enforcer is a review-time diagnostic. Invariants a dynamic test already pins (allocation-free
// hot paths, goroutine shutdown, lock discipline, buffer ownership,
// copy-on-write publication) are deliberately not here; LINTING.md
// records the trial behind that split.
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
		DropAcct,
	}
}

// isTransportSend reports whether call is a transport-style send: a
// function or method named Send with signature (int, []byte) error —
// the shape of transport.Transport.Send, matched structurally so
// fixture stubs and future transports are covered without importing
// the package under test.
func isTransportSend(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" {
		return false
	}
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return false
	}
	params, results := sig.Params(), sig.Results()
	if params.Len() != 2 || results.Len() != 1 {
		return false
	}
	if b, ok := params.At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	if !isByteSlice(params.At(1).Type()) {
		return false
	}
	named, ok := results.At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
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

// mentionsDrop reports whether any identifier or selector in the
// statements names a drop bucket ("Drops", "dropped", ...): the
// structural signal that a lost envelope was counted.
func mentionsDrop(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && containsFold(id.Name, "drop") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
