package rules

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"fairgossip/internal/analysis"
)

// Wirekind guards the sent == received + dropped conservation law at
// the vocabulary level: when PR 5 added KindLeave, every switch over a
// wire kind either learned the new case or silently black-holed leave
// traffic — and only the conservation audits would have noticed, at
// runtime, statistically. This rule makes the omission a review-time
// finding: a switch over a kind family (the package-scope Kind*/kind*
// constants sharing the switched value's type) must handle every
// declared member, or carry a default that visibly accounts for the
// stranger — counting it into a drop/malformed/corrupt bucket, or
// refusing it with a return or panic. A default that silently falls
// through is exactly the black hole.
var Wirekind = &analysis.Analyzer{
	Name: "wirekind",
	Doc:  "A switch over a wire-kind value (any constant family named Kind*/kind*) must either handle every declared constant of the family or have a default that counts the message into a drop/malformed/corrupt bucket (or rejects it with return/panic). Unhandled kinds silently black-hole traffic and break the sent==received+dropped conservation law.",
	Run:  runWirekind,
}

func runWirekind(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
				checkKindSwitch(pass, sw)
			}
			return true
		})
	}
	return nil
}

func checkKindSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	info := pass.TypesInfo

	// The family is seeded by the case labels, not the tag type: a tag
	// may be a plain byte, or an alias declared far from its constants.
	// Any case naming a Kind*/kind* constant identifies the declaring
	// package and the family type.
	covered := make(map[types.Object]bool)
	var defaultClause *ast.CaseClause
	var seed *types.Const
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			c := constOf(info, e)
			if c == nil {
				continue
			}
			covered[c] = true
			if seed == nil && isKindName(c.Name()) {
				seed = c
			}
		}
	}
	if seed == nil || seed.Pkg() == nil {
		return // not a kind switch
	}

	family := kindFamily(seed)
	if len(family) < 2 {
		return // a lone constant is a sentinel, not a vocabulary
	}
	var missing []string
	for _, c := range family {
		if !covered[c] {
			missing = append(missing, seed.Pkg().Name()+"."+c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	list := strings.Join(missing, ", ")
	if defaultClause == nil {
		pass.Reportf(sw.Switch, "missing",
			"switch over %s kinds does not handle %s and has no default: an unhandled kind must be counted, not silently skipped — add the cases or a default that counts the message as malformed/dropped",
			seed.Pkg().Name(), list)
		return
	}
	if !defaultCounts(defaultClause.Body) {
		pass.Reportf(sw.Switch, "default",
			"switch over %s kinds does not handle %s and its default does not visibly account for the stranger: count it into a drop/malformed/corrupt bucket or reject it with return/panic",
			seed.Pkg().Name(), list)
	}
}

// constOf resolves a case expression to the constant it names, through
// a plain identifier or a pkg.Name selector.
func constOf(info *types.Info, e ast.Expr) *types.Const {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	}
	c, _ := obj.(*types.Const)
	return c
}

// kindFamily returns every package-scope constant sharing the seed's
// exact type and the Kind*/kind* naming pattern — the declared wire
// vocabulary. maxKind-style bounds fall outside the prefix and so
// outside the family.
func kindFamily(seed *types.Const) []*types.Const {
	scope := seed.Pkg().Scope()
	var family []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !isKindName(name) {
			continue
		}
		if types.Identical(c.Type(), seed.Type()) {
			family = append(family, c)
		}
	}
	return family
}

func isKindName(name string) bool {
	return len(name) > 4 && (strings.HasPrefix(name, "Kind") || strings.HasPrefix(name, "kind"))
}

// defaultCounts reports whether a default clause visibly accounts for
// an unknown kind: it names a drop/malformed/corrupt/fail bucket, or
// refuses to continue (return or panic anywhere in the clause).
func defaultCounts(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.ReturnStmt:
				found = true
			case *ast.Ident:
				if containsFold(n.Name, "drop") || containsFold(n.Name, "malformed") ||
					containsFold(n.Name, "corrupt") || containsFold(n.Name, "fail") {
					found = true
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
