package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// DirectiveRule is the pseudo-rule under which the driver reports
// suppression bookkeeping violations: malformed //fair: comments,
// ignores naming unknown rules, missing justifications, and ignores
// that suppress nothing. These findings are not themselves
// suppressible — they are the audit trail of the escape hatches.
const DirectiveRule = "directive"

// suppressor is one //fair:ignore or //fair:wallclock comment being
// tracked through a Run.
type suppressor struct {
	d     Directive
	file  string
	line  int
	valid bool // well-formed: known rule (ignore) and non-empty reason
	used  bool
}

// Run executes the analyzers over every package and returns the
// findings that survive suppression, plus the directive-audit findings.
//
// A diagnostic is suppressed by a well-formed //fair:ignore naming its
// rule, or (for the determinism rule's wallclock category only) a
// //fair:wallclock comment, on the same line or the line above. Every
// suppression must carry a justification and must actually suppress
// something; violations surface as findings under DirectiveRule.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	// The analyzers in the run are the whole vocabulary a //fair:ignore
	// may name.
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}

		sups, audit := collectSuppressors(pkg, known)
		findings = append(findings, audit...)

		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if s := matchSuppressor(sups, pos, d); s != nil {
				s.used = true
				continue
			}
			findings = append(findings, Finding{
				Position: pos,
				Rule:     d.Rule,
				Category: d.Category,
				Message:  d.Message,
			})
		}

		for _, s := range sups {
			if s.valid && !s.used {
				findings = append(findings, Finding{
					Position: pkg.Fset.Position(s.d.Comment.Pos()),
					Rule:     DirectiveRule,
					Category: "unused",
					Message: fmt.Sprintf("//fair:%s suppresses nothing on this or the next line; delete the stale escape hatch",
						s.d.Kind),
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

// collectSuppressors indexes the package's suppression comments and
// reports the malformed ones.
func collectSuppressors(pkg *Package, known map[string]bool) ([]*suppressor, []Finding) {
	var sups []*suppressor
	var audit []Finding
	for _, f := range pkg.Syntax {
		for _, d := range ParseDirectives(f) {
			pos := pkg.Fset.Position(d.Comment.Pos())
			if !d.Known {
				audit = append(audit, Finding{
					Position: pos, Rule: DirectiveRule, Category: "unknown",
					Message: fmt.Sprintf("unknown //fair: directive %q (want %s)", d.Kind,
						DirIgnore+", "+DirWallclock),
				})
				continue
			}
			s := &suppressor{d: d, file: pos.Filename, line: pos.Line, valid: true}
			if d.Kind == DirIgnore {
				if !known[d.Rule] {
					audit = append(audit, Finding{
						Position: pos, Rule: DirectiveRule, Category: "unknown-rule",
						Message: fmt.Sprintf("//fair:ignore names unknown rule %q", d.Rule),
					})
					s.valid = false
				}
			}
			if s.valid && d.Reason == "" {
				audit = append(audit, Finding{
					Position: pos, Rule: DirectiveRule, Category: "unjustified",
					Message: fmt.Sprintf("//fair:%s is missing its justification: every suppression must say why the invariant holds anyway", d.Kind),
				})
				s.valid = false
			}
			sups = append(sups, s)
		}
	}
	return sups, audit
}

// matchSuppressor finds a valid suppressor covering the diagnostic: an
// ignore for its rule, or a wallclock comment for the determinism
// rule's wallclock category, on the same line or the line above.
func matchSuppressor(sups []*suppressor, pos token.Position, d Diagnostic) *suppressor {
	for _, s := range sups {
		if !s.valid || s.file != pos.Filename {
			continue
		}
		if s.line != pos.Line && s.line != pos.Line-1 {
			continue
		}
		switch s.d.Kind {
		case DirIgnore:
			if s.d.Rule == d.Rule {
				return s
			}
		case DirWallclock:
			if d.Rule == "determinism" && d.Category == "wallclock" {
				return s
			}
		}
	}
	return nil
}
