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
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
// Only non-test files are loaded: every invariant smokevet enforces
// exempts _test.go code, and keeping tests out of the type-check keeps
// the loader free of external-test-package mechanics.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Suppressions indexes //smokevet:ignore comments by file line.
	Suppressions *suppressionIndex
	// TypeErrors carries any type-check errors. Analysis still runs —
	// the AST is usually intact — but the runner surfaces them so a
	// package that does not compile cannot silently pass the gate.
	TypeErrors []error
}

// Loader parses and type-checks packages with one shared FileSet and one
// shared source importer, so repeated loads reuse already-checked
// dependencies (the importer caches internally).
type Loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom
}

// NewLoader returns a loader backed by the stdlib source importer, which
// type-checks dependencies (including the standard library) from source —
// no compiled export data or module proxy required.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &Loader{fset: fset, imp: imp}
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
}

// Load expands the `go list` patterns (e.g. "./...") relative to dir and
// returns the matched packages, parsed and type-checked, in a stable
// order. Packages with no buildable Go files are skipped.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	var pkgs []*Package
	for _, p := range listed {
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := l.check(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		pkg.Name = p.Name
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
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
	return l.checkWith(imp, path, dir, files)
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

func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	return l.checkWith(l.imp, path, dir, filenames)
}

func (l *Loader) checkWith(imp types.ImporterFrom, path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info) // errors collected above
	return &Package{
		Path:         path,
		Dir:          dir,
		Fset:         l.fset,
		Files:        files,
		Pkg:          tpkg,
		Info:         info,
		Suppressions: indexSuppressions(l.fset, files),
		TypeErrors:   typeErrs,
	}, nil
}
