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

// Load type-checks every package of the module rooted at dir and returns
// the ones the `go list` patterns (e.g. "./...") match, together with the
// whole module, in a stable order. Packages with no buildable Go files
// are skipped. The module is loaded whatever the patterns, so reach sees
// the same uses on a narrow pattern as on a full run. dir should be the
// working directory: the source importer resolves module imports by
// running `go list` there.
func (l *Loader) Load(dir string, patterns ...string) (matched, all []*Package, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module, err := goList(dir, "./...")
	if err != nil {
		return nil, nil, err
	}
	want, err := goList(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	byPath := map[string]*Package{}
	for _, p := range module {
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := l.check(l.imp, p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, nil, err
		}
		pkg.Name = p.Name
		all = append(all, pkg)
		byPath[p.ImportPath] = pkg
	}
	for _, p := range want {
		if len(p.GoFiles) == 0 {
			continue
		}
		pkg, ok := byPath[p.ImportPath]
		if !ok {
			return nil, nil, fmt.Errorf("analysis: %s is outside the module rooted at %s", p.ImportPath, dir)
		}
		matched = append(matched, pkg)
	}
	return matched, all, nil
}

// goList runs `go list -json` on the patterns in dir and returns the
// packages sorted by import path.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
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
	return listed, nil
}

// check parses and type-checks one package's files, resolving imports
// through imp.
func (l *Loader) check(imp types.ImporterFrom, path, dir string, filenames []string) (*Package, error) {
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
