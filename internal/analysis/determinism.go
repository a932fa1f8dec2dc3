package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DeterministicPackages is the one list of sim-deterministic import
// paths: everything a fixed-seed run (the golden fairbench hash, the
// scenario sim column, the sharded kernel's per-(seed, shardCount)
// merges) flows through, where a stray wall-clock read, a draw from the
// process-global RNG, or a map-order-dependent result silently breaks
// the byte-identical guarantee. A new sim package joins by adding its
// path here; there is no per-file opt-in.
var DeterministicPackages = map[string]bool{
	"fairgossip/internal/eventsim":   true,
	"fairgossip/internal/simnet":     true,
	"fairgossip/internal/core":       true,
	"fairgossip/internal/protocol":   true,
	"fairgossip/internal/gossip":     true,
	"fairgossip/internal/membership": true,
	"fairgossip/internal/fairness":   true,
	"fairgossip/internal/randutil":   true,
	"fairgossip/internal/scenario":   true,
	"fairgossip/internal/structured": true,
	"fairgossip/internal/adaptive":   true,
	"fairgossip/internal/workload":   true,
	"fairgossip/internal/experiment": true,
	"fairgossip/internal/dam":        true,
	"fairgossip/internal/balance":    true,
	"fairgossip/internal/pubsub":     true,
	"fairgossip/internal/stats":      true,
}

// wallclockFuncs are the package time entry points that read or wait on
// the machine clock. Virtual time (eventsim.Sim.Now, round counters) is
// the only clock deterministic code may consult; code that paces real
// goroutines lives outside the deterministic packages (live.Cluster's
// RunRounds and Settle pace the scenario engine's live columns).
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand (and v2) package-level draws that
// consume the process-global RNG stream — shared, lock-guarded, and
// invisible to the fixed-seed contract. Only a seeded *rand.Rand passed
// by value is legal in deterministic code; rand.New/NewSource/NewZipf
// construct those and stay allowed.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
}

// Determinism enforces the fixed-seed contract on one loaded package,
// if it is on DeterministicPackages: no time.Now/Since/Sleep and
// friends, no global math/rand top-level draws (pass a seeded
// *rand.Rand), no package-level *rand.Rand/rand.Source variables (a
// stream shared across shards is consumed in goroutine-interleaving
// order), and no map-range loop whose body feeds ordering-sensitive
// logic (calls, appends, sends).
func Determinism(pkg *Package) []Finding {
	if !DeterministicPackages[pkg.Path] {
		return nil
	}
	c := &checker{pkg: pkg}
	for _, f := range pkg.Syntax {
		c.checkSharedRNGVars(f)
		// Track the enclosing function body so the map-range check can
		// recognize the sanctioned collect-then-sort repair downstream
		// of the loop.
		var encl *ast.BlockStmt
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				saved := encl
				encl = n.Body
				if n.Body != nil {
					ast.Inspect(n.Body, walk)
				}
				encl = saved
				return false
			case *ast.CallExpr:
				c.checkForbiddenCall(n)
			case *ast.RangeStmt:
				c.checkMapRange(n, encl)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return c.findings
}

// checker collects one package's findings.
type checker struct {
	pkg      *Package
	findings []Finding
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.findings = append(c.findings, Finding{Position: c.pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// checkForbiddenCall flags wall-clock reads and global-RNG draws by
// resolving the callee to its defining package, so a local identifier
// coincidentally named Now is never confused with time.Now.
func (c *checker) checkForbiddenCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := c.pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. time.Time.Sub on stored virtual stamps) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallclockFuncs[fn.Name()] {
			c.reportf(call.Pos(),
				"time.%s in a sim-deterministic package: use the virtual clock (eventsim.Sim.Now / round counters), or move the wall-clock code out of the package", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			c.reportf(call.Pos(),
				"rand.%s draws from the process-global RNG and breaks the fixed-seed contract: pass a seeded *rand.Rand instead", fn.Name())
		}
	}
}

// checkSharedRNGVars flags package-level variables holding an RNG
// stream (*rand.Rand, rand.Source/Source64, rand.Zipf — v1 or v2).
// With the kernel sharded, any stream reachable from more than one
// goroutine is consumed in goroutine-interleaving order, so its draws
// differ run to run even at a fixed seed; and even single-threaded, a
// package-level stream couples otherwise-independent clusters through
// hidden state. Every RNG must hang off a node, shard, or cluster,
// seeded from (seed, shardID) — see randutil.ShardSeed.
func (c *checker) checkSharedRNGVars(f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := c.pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if rngTypeName(obj.Type()) != "" {
					c.reportf(name.Pos(),
						"package-level %s %s is an RNG stream shared across every caller (and every shard): draws consume it in goroutine-interleaving order, breaking the fixed-seed contract — store the stream on the node/shard/cluster and seed it from (seed, shardID)",
						rngTypeName(obj.Type()), name.Name)
				}
			}
		}
	}
}

// rngTypeName reports the math/rand stream type a variable holds
// (unwrapping pointers, slices, arrays, and map values), or "".
func rngTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Map:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	switch named.Obj().Pkg().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return ""
	}
	switch named.Obj().Name() {
	case "Rand", "Source", "Source64", "Zipf", "PCG", "ChaCha8":
		return "rand." + named.Obj().Name()
	}
	return ""
}

// checkMapRange flags `for ... := range m` over a map when the loop
// body feeds ordering-sensitive logic. Go randomizes map iteration
// order per run, so any order-dependent effect in the body —
// appending, calling out, sending — makes two fixed-seed runs diverge.
// Pure commutative bodies (counting, summing, delete, writes into
// another map) pass.
func (c *checker) checkMapRange(rs *ast.RangeStmt, encl *ast.BlockStmt) {
	t := c.pkg.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	why, appendTargets := orderSensitive(c.pkg.Info, rs.Body)
	if why == "" {
		return
	}
	// The sanctioned repair is collect-then-sort: appending the keys
	// and sorting the slice right after the loop erases the iteration
	// order. When appends are the only sensitivity and every target is
	// sorted downstream in the same function, the loop is clean.
	if appendTargets != nil {
		allSorted := true
		for _, obj := range appendTargets {
			if obj == nil || !sortedAfter(c.pkg.Info, encl, obj, rs.End()) {
				allSorted = false
				break
			}
		}
		if allSorted {
			return
		}
	}
	c.reportf(rs.Pos(),
		"map iteration order feeds ordering-sensitive logic (%s): collect and sort the keys, or keep a stable side order", why)
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// pos inside the function body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if exprObj(info, arg) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprObj resolves an identifier or field selector to its object.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	}
	return nil
}

// commutativeBuiltins may appear in an order-insensitive map-range
// body: they do not observe or emit iteration order.
var commutativeBuiltins = map[string]bool{
	"delete": true, "len": true, "cap": true, "min": true, "max": true,
}

// orderSensitive scans a map-range body for effects that observe the
// iteration order. When appending to slices is the only sensitivity it
// also returns the append targets, so the caller can recognize the
// collect-then-sort repair; a nil ignorable set means the body has
// sensitivities no downstream sort can erase.
func orderSensitive(info *types.Info, body *ast.BlockStmt) (string, []types.Object) {
	why := ""
	onlyAppends := true
	var appends []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if b := builtinName(info, n); b != "" {
				switch {
				case commutativeBuiltins[b]:
				case b == "append":
					if why == "" {
						why = "append in the loop body"
					}
					var target types.Object
					if len(n.Args) > 0 {
						target = exprObj(info, n.Args[0])
					}
					appends = append(appends, target)
				default:
					why, onlyAppends = b+" in the loop body", false
				}
				return true
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true // type conversion: produces a value, observes no order
			}
			why, onlyAppends = "a call in the loop body", false
		case *ast.SendStmt:
			why, onlyAppends = "a channel send in the loop body", false
		case *ast.ReturnStmt:
			why, onlyAppends = "a return mid-iteration", false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if bt := info.TypeOf(ix.X); bt != nil {
						if _, isSlice := bt.Underlying().(*types.Slice); isSlice {
							why, onlyAppends = "a slice element write in the loop body", false
						}
					}
				}
			}
		}
		return true
	})
	if !onlyAppends {
		return why, nil
	}
	return why, appends
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
