package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRE extracts the expectation list from a fixture comment:
// `// want "regex"` with one or more quoted (or backquoted) regexes,
// mirroring x/tools analysistest. The marker may trail a //fair:
// directive inside the same comment.
var wantRE = regexp.MustCompile(`// want((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)

var wantArgRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// RunFixture loads one fixture package from a testdata module, runs the
// analyzers over it, and asserts the findings match the `// want`
// expectations exactly: every finding needs a matching want on its
// line, and every want must be satisfied by some finding.
func RunFixture(t testing.TB, moduleDir, pkgPattern string, analyzers []*Analyzer) {
	t.Helper()
	pkgs, err := Load(moduleDir, "./"+pkgPattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPattern, err)
	}
	findings, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgPattern, err)
	}

	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					ws, err := parseWants(c.Text)
					if err != nil {
						t.Fatalf("%s: %v", pos, err)
					}
					for _, re := range ws {
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, f := range findings {
		if w := matchWant(wants, f); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched `// want %q`", w.file, w.line, w.re)
		}
	}
}

func parseWants(comment string) ([]*regexp.Regexp, error) {
	m := wantRE.FindStringSubmatch(comment)
	if m == nil {
		return nil, nil
	}
	var res []*regexp.Regexp
	for _, q := range wantArgRE.FindAllString(m[1], -1) {
		var pat string
		if q[0] == '`' {
			pat = q[1 : len(q)-1]
		} else {
			var err error
			pat, err = strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %s: %v", q, err)
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", pat, err)
		}
		res = append(res, re)
	}
	return res, nil
}

func matchWant(wants []*want, f Finding) *want {
	for _, w := range wants {
		if w.matched || w.line != f.Position.Line {
			continue
		}
		if !strings.HasSuffix(f.Position.Filename, w.file) && !strings.HasSuffix(w.file, f.Position.Filename) {
			continue
		}
		if w.re.MatchString(f.Message) {
			return w
		}
	}
	return nil
}
