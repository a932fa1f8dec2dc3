package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing test source: %v", err)
	}
	return fset, f
}

// TestParseDirectivesCRLF checks that files with Windows line endings
// parse to the same directives: the field splitter treats the stray
// carriage return as whitespace.
func TestParseDirectivesCRLF(t *testing.T) {
	src := strings.Join([]string{
		"package p",
		"",
		"func f() {",
		"\t_ = 1 //fair:ignore dropacct reason words here",
		"\t_ = 2 //fair:wallclock paced in wall time",
		"}",
		"",
	}, "\r\n")
	_, f := parseSrc(t, src)
	ds := ParseDirectives(f)
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(ds), ds)
	}
	ig := ds[0]
	if ig.Kind != DirIgnore || ig.Rule != "dropacct" || ig.Reason != "reason words here" {
		t.Errorf("CRLF ignore parsed as %+v", ig)
	}
	wc := ds[1]
	if wc.Kind != DirWallclock || wc.Reason != "paced in wall time" {
		t.Errorf("CRLF wallclock parsed as %+v", wc)
	}
	for _, d := range ds {
		if strings.ContainsRune(d.Reason, '\r') {
			t.Errorf("reason leaked a carriage return: %q", d.Reason)
		}
	}
}

// TestParseDirectivesMultiPerComment checks the back-to-back form for
// lines where two rules fire at once: one comment, several directives.
func TestParseDirectivesMultiPerComment(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //fair:ignore dropacct reason one //fair:ignore determinism reason two
}
`
	_, f := parseSrc(t, src)
	ds := ParseDirectives(f)
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(ds), ds)
	}
	if ds[0].Rule != "dropacct" || ds[0].Reason != "reason one" {
		t.Errorf("first segment parsed as %+v", ds[0])
	}
	if ds[1].Rule != "determinism" || ds[1].Reason != "reason two" {
		t.Errorf("second segment parsed as %+v", ds[1])
	}
}

// TestParseDirectivesWantSuffix checks the fixture convention: a
// trailing `// want "..."` expectation on the directive's own comment
// is not part of the directive — even when the want text itself quotes
// a //fair: marker.
func TestParseDirectivesWantSuffix(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t_ = 1 //fair:ignore dropacct the reason // want `//fair:ignore names unknown rule`\n}\n"
	_, f := parseSrc(t, src)
	ds := ParseDirectives(f)
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1: %+v", len(ds), ds)
	}
	if ds[0].Rule != "dropacct" || ds[0].Reason != "the reason" {
		t.Errorf("directive parsed as %+v", ds[0])
	}
}
