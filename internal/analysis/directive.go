package analysis

import (
	"go/ast"
	"strings"
)

// The //fair: comment vocabulary. Directives are ordinary line comments
// beginning with "//fair:" (no space, like //go: directives):
//
//	//fair:ignore <rule> <reason>   suppress rule's finding on this or
//	                                the next line; the reason is
//	                                mandatory and the driver verifies
//	                                the comment actually suppresses
//	                                something — stale or unjustified
//	                                ignores are themselves findings.
//	//fair:wallclock <reason>       the audited escape hatch for the
//	                                determinism rule's wallclock
//	                                category only (time.Now and
//	                                friends); same verification.
//
// One comment may carry several directives back to back —
// `//fair:wallclock reason //fair:ignore determinism reason` — for
// lines where two findings fire at once. Files with CRLF line endings
// parse identically: stray carriage returns are whitespace to the
// field splitter.
const (
	DirIgnore    = "ignore"
	DirWallclock = "wallclock"
)

// A Directive is one parsed //fair: comment (or one segment of a
// multi-directive comment).
type Directive struct {
	Comment *ast.Comment
	Kind    string // one of the Dir* constants, or the raw unknown word
	Known   bool   // Kind is one of the Dir* constants
	Rule    string // DirIgnore only: the rule being suppressed
	Reason  string // DirIgnore, DirWallclock: the justification
}

// ParseDirectives returns every //fair: directive in the file, in
// source order.
func ParseDirectives(f *ast.File) []Directive {
	var ds []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			ds = append(ds, parseComment(c)...)
		}
	}
	return ds
}

// parseComment returns the directives in one comment: nil for ordinary
// comments, one entry per "//fair:" segment otherwise.
func parseComment(c *ast.Comment) []Directive {
	text := c.Text
	if !strings.HasPrefix(text, "//fair:") {
		return nil
	}
	// Fixture files append `// want "..."` expectations to the same
	// comment; they are not part of the directive.
	if i := strings.Index(text, "// want"); i >= 0 {
		text = text[:i]
	}
	// Several directives may share one comment, each introduced by its
	// own marker; the split's leading empty segment is the text before
	// the first marker, i.e. nothing.
	segs := strings.Split(text, "//fair:")
	ds := make([]Directive, 0, len(segs)-1)
	for _, seg := range segs[1:] {
		ds = append(ds, parseSegment(c, seg))
	}
	return ds
}

func parseSegment(c *ast.Comment, seg string) Directive {
	d := Directive{Comment: c}
	// Fields splits on any whitespace, so CRLF files' trailing \r needs
	// no special casing.
	fields := strings.Fields(seg)
	if len(fields) == 0 {
		return d // Kind "", Known false: audited as unknown
	}
	d.Kind = fields[0]
	switch d.Kind {
	case DirIgnore:
		if len(fields) > 1 {
			d.Rule = fields[1]
		}
		d.Reason = strings.Join(fields[2:], " ")
		d.Known = true
	case DirWallclock:
		d.Reason = strings.Join(fields[1:], " ")
		d.Known = true
	}
	return d
}
