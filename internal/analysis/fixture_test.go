package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// LoadDir loads the single package rooted at dir from its *.go files
// (test files excluded), under a synthetic import path. The fixture
// runner uses it for testdata packages, which `go list ./...` ignores.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	return l.loadFixtureDir(dir, "fixture/"+filepath.Base(dir), nil)
}

// LoadFixtureTree loads a fixture directory together with its
// sub-package fixtures: each immediate subdirectory of dir containing Go
// files becomes package "fixture/<base>/<sub>", and the root files (if
// any) become "fixture/<base>". Sub-packages may import one another and
// the root may import any sub-package — imports under the "fixture/"
// prefix resolve against the tree itself instead of the stdlib source
// importer, which is what lets a fixture span two type-checked packages.
// Packages are returned in dependency order (imports first).
func (l *Loader) LoadFixtureTree(dir string) ([]*Package, error) {
	base := "fixture/" + filepath.Base(dir)
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	// Map every fixture package path in the tree to its directory, root
	// included, then load in dependency order so each package's fixture
	// imports are already type-checked when its own check begins.
	dirs := map[string]string{}
	if ok, err := hasGoFiles(dir); err != nil {
		return nil, err
	} else if ok {
		dirs[base] = dir
	}
	for _, e := range entries {
		ok, err := hasGoFiles(e)
		if err != nil {
			return nil, err
		}
		if ok {
			dirs[base+"/"+filepath.Base(e)] = e
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	fixtures := map[string]*types.Package{}
	var pkgs []*Package
	loaded := map[string]bool{}
	var load func(path string, chain []string) error
	load = func(path string, chain []string) error {
		if loaded[path] {
			return nil
		}
		for _, c := range chain {
			if c == path {
				return fmt.Errorf("analysis: fixture import cycle through %s", path)
			}
		}
		imports, err := fixtureImports(dirs[path])
		if err != nil {
			return err
		}
		for _, imp := range imports {
			if _, ok := dirs[imp]; ok {
				if err := load(imp, append(chain, path)); err != nil {
					return err
				}
			}
		}
		pkg, err := l.loadFixtureDir(dirs[path], path, fixtures)
		if err != nil {
			return err
		}
		if pkg.Pkg != nil {
			fixtures[path] = pkg.Pkg
		}
		pkgs = append(pkgs, pkg)
		loaded[path] = true
		return nil
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := load(p, nil); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// loadFixtureDir checks one fixture directory under the given synthetic
// import path, resolving "fixture/..." imports through the supplied
// already-checked tree packages.
func (l *Loader) loadFixtureDir(dir, path string, fixtures map[string]*types.Package) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []string
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			files = append(files, m)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(files)
	imp := l.imp
	if len(fixtures) > 0 {
		imp = &fixtureImporter{next: l.imp, fixtures: fixtures}
	}
	return l.check(imp, path, dir, files)
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) (bool, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return false, err
	}
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// fixtureImports parses the import paths of every non-test Go file in dir
// (syntax only — no type-checking).
func fixtureImports(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, m := range matches {
		if strings.HasSuffix(m, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), m, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// fixtureImporter resolves imports of already-checked fixture packages
// and defers everything else (the stdlib) to the source importer.
type fixtureImporter struct {
	next     types.ImporterFrom
	fixtures map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	return fi.ImportFrom(path, "", 0)
}

func (fi *fixtureImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := fi.fixtures[path]; ok {
		return pkg, nil
	}
	return fi.next.ImportFrom(path, dir, mode)
}
