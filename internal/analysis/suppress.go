package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression syntax:
//
//	//smokevet:ignore <reason>
//	//smokevet:ignore <analyzer>: <reason>
//
// A suppression silences findings reported on the comment's own line or
// on the line directly below it — so it works both as a trailing comment
// and as a full-line comment above the offending statement. The reason is
// mandatory: a bare `//smokevet:ignore` is itself reported, which is what
// keeps the acceptance bar of "zero unexplained suppressions" mechanical.
// Naming an analyzer scopes the suppression to it; otherwise it applies
// to every analyzer. A scope that names no analyzer of the suite — a typo,
// or an analyzer since retired — is reported like a missing reason and
// silences nothing, instead of quietly widening into a blanket ignore.
//
// Suppressions are also audited: when the full suite runs, any ignore
// that silenced nothing is reported as stale (RunSuite's audit), so a
// suppression cannot outlive the finding it was written for and quietly
// blanket a future one.

const suppressPrefix = "smokevet:ignore"

type suppression struct {
	analyzer string // "" = all analyzers
	reason   string
	pos      token.Pos
	// used records whether the suppression silenced at least one
	// diagnostic during the current run (the stale-ignore audit).
	used bool
}

// describe renders the suppression's scope and reason for the stale
// report.
func (s *suppression) describe() string {
	if s.analyzer != "" {
		return s.analyzer + ": " + s.reason
	}
	return s.reason
}

// suppressionIndex maps file line -> suppressions effective on that line.
// Both lines of one comment share a single *suppression, so a use on
// either line marks the comment used.
type suppressionIndex struct {
	byLine map[int][]*suppression
	// ordered lists each suppression once, in source order.
	ordered []*suppression
	// malformed are suppressions that silence nothing and are reported by
	// the runner instead: no reason, or a scope naming no analyzer.
	malformed []malformedSuppression
}

type malformedSuppression struct {
	pos     token.Pos
	message string
}

// knownAnalyzer reports whether name is an analyzer of the suite. The
// roster is Analyzers() itself, so a retired analyzer's name stops being
// accepted the moment it leaves the registry.
func knownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// parseSuppression interprets one line comment's text (with the leading
// "//" already stripped). It returns the parsed suppression and whether
// the comment is a suppression at all. A suppression with an empty reason
// is malformed, and so is one whose reason opens with a single word and a
// colon that names no analyzer (unknownScope is that word); both are
// reported by the runner and never effective. A colon later in a reason is
// just text. The fuzz target FuzzSuppressParse pins this parser:
// arbitrary comment bytes must parse without panicking, and every
// well-formed result must carry a non-empty reason and a known (or empty)
// analyzer scope.
func parseSuppression(text string) (s suppression, unknownScope string, isSuppression bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), suppressPrefix)
	if !ok {
		return suppression{}, "", false
	}
	s.reason = strings.TrimSpace(rest)
	if name, tail, found := strings.Cut(s.reason, ":"); found {
		switch name = strings.TrimSpace(name); {
		case knownAnalyzer(name):
			s.analyzer = name
			s.reason = strings.TrimSpace(tail)
		case name != "" && !strings.ContainsAny(name, " \t"):
			return s, name, true
		}
	}
	return s, "", true
}

func indexSuppressions(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{byLine: map[int][]*suppression{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments don't carry suppressions
				}
				s, unknownScope, ok := parseSuppression(text)
				if !ok {
					continue
				}
				s.pos = c.Pos()
				if unknownScope != "" {
					idx.malformed = append(idx.malformed, malformedSuppression{c.Pos(),
						fmt.Sprintf("smokevet:ignore names %q, which is not an analyzer of the suite; it silences nothing", unknownScope)})
					continue
				}
				if s.reason == "" {
					idx.malformed = append(idx.malformed, malformedSuppression{c.Pos(),
						"smokevet:ignore without a reason; write //smokevet:ignore <reason>"})
					continue
				}
				sp := &s
				idx.ordered = append(idx.ordered, sp)
				line := fset.Position(c.Pos()).Line
				idx.byLine[line] = append(idx.byLine[line], sp)
				idx.byLine[line+1] = append(idx.byLine[line+1], sp)
			}
		}
	}
	return idx
}

// suppressed reports whether a finding by analyzer on line is silenced,
// marking the silencing suppression used for the stale audit.
func (idx *suppressionIndex) suppressed(analyzer string, line int) bool {
	hit := false
	for _, s := range idx.byLine[line] {
		if s.analyzer == "" || s.analyzer == analyzer {
			s.used = true
			hit = true
		}
	}
	return hit
}

// stale returns the suppressions that silenced nothing, in source order.
func (idx *suppressionIndex) stale() []*suppression {
	var out []*suppression
	for _, s := range idx.ordered {
		if !s.used {
			out = append(out, s)
		}
	}
	return out
}
