package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Fixture support: the analysistest-style harness the analyzer tests run
// on the packages under testdata/src/<analyzer>/. A fixture line marks an
// expected finding with a trailing comment:
//
//	time.Now() // want `wall clock`
//
// The backquoted (or double-quoted) text is a regexp that must match a
// diagnostic reported on that line; lines without a want comment must
// produce no diagnostic. RunFixture fails on both missing and surplus
// findings, so a disabled or weakened check cannot pass its fixtures.

var wantRE = regexp.MustCompile("//\\s*want\\s+(`[^`]*`|\"[^\"]*\")")

// expectation is one `// want` mark.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// FixtureResult reports the mismatches between expected and actual
// diagnostics for one analyzer over one fixture package.
type FixtureResult struct {
	// Unmatched are want comments no diagnostic satisfied.
	Unmatched []string
	// Unexpected are diagnostics with no matching want comment.
	Unexpected []string
}

// Failed reports whether the fixture run found any mismatch.
func (r *FixtureResult) Failed() bool {
	return len(r.Unmatched) > 0 || len(r.Unexpected) > 0
}

func (r *FixtureResult) String() string {
	var b strings.Builder
	for _, u := range r.Unmatched {
		fmt.Fprintf(&b, "missing diagnostic: %s\n", u)
	}
	for _, u := range r.Unexpected {
		fmt.Fprintf(&b, "unexpected diagnostic: %s\n", u)
	}
	return b.String()
}

// RunFixture loads the fixture tree rooted at dir — the root package plus
// any sub-package fixtures in immediate subdirectories — and runs one
// analyzer over every package (bypassing the analyzer's package Match, so
// fixtures exercise the check regardless of their synthetic import paths),
// comparing findings against the tree's want comments.
func RunFixture(l *Loader, a *Analyzer, dir string) (*FixtureResult, error) {
	pkgs, err := l.LoadFixtureTree(dir)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	var expects []*expectation
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("fixture %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
		ds, err := runOne(pkg, a)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
		for _, m := range pkg.Suppressions.malformed {
			diags = append(diags, Diagnostic{
				Analyzer: "smokevet",
				Pos:      pkg.Fset.Position(m.pos),
				Message:  m.message,
			})
		}
		es, err := collectWants(pkg.Fset, pkg.Files)
		if err != nil {
			return nil, err
		}
		expects = append(expects, es...)
	}

	res := &FixtureResult{}
	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
				continue
			}
			if e.pattern.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			res.Unexpected = append(res.Unexpected, d.String())
		}
	}
	for _, e := range expects {
		if !e.matched {
			res.Unmatched = append(res.Unmatched, fmt.Sprintf("%s:%d: want %q", e.file, e.line, e.pattern))
		}
	}
	return res, nil
}

// collectWants extracts the want comments of every fixture file.
func collectWants(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1][1 : len(m[1])-1] // strip quotes/backquotes
				re, err := regexp.Compile(pat)
				if err != nil {
					p := fset.Position(c.Pos())
					return nil, fmt.Errorf("%s: bad want pattern %q: %v", p, pat, err)
				}
				p := fset.Position(c.Pos())
				out = append(out, &expectation{file: p.Filename, line: p.Line, pattern: re})
			}
		}
	}
	return out, nil
}
