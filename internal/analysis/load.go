package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// A Package is one loaded, parsed, type-checked target package.
type Package struct {
	Path   string // import path
	Fset   *token.FileSet
	Syntax []*ast.File // build-constraint filtered, no tests
	Types  *types.Package
	Info   *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load parses and type-checks the packages matched by patterns,
// resolved relative to dir (the module to analyze; fixture suites pass
// their testdata module). It shells out to `go list -export -deps` so
// the go command answers every build-system question — build
// constraints, file lists, the dependency graph — and compiles export
// data for the dependencies; dependencies are then imported through the
// stdlib gc importer from those export files while the target packages
// themselves are type-checked from source with full syntax and
// position information. Everything runs offline: the only inputs are
// the local toolchain and the local source tree.
//
// Test files are not loaded: the suite audits the shipped code, and
// the runtime test harnesses (AllocsPerRun pins, scribble audits) are
// precisely the code that legitimately touches wall clocks and global
// state.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		lp := p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			targets = append(targets, &lp)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typeCheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, t *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, gf := range t.GoFiles {
		path := gf
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, gf)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		Path:   t.ImportPath,
		Fset:   fset,
		Syntax: files,
		Types:  tpkg,
		Info:   info,
	}, nil
}
