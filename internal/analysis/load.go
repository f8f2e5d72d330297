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
		pkg, err := l.check(l.imp, p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		pkg.Name = p.Name
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
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
