package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFixture(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDirGenerics pins that the stdlib loader type-checks generic
// code: the analyzers walk Info.Uses/Selections on instantiated calls,
// so a loader that chokes on type parameters would silently blind every
// analyzer to generic call sites.
func TestLoadDirGenerics(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "generic.go", `package generic

type Number interface {
	~int | ~float64
}

func Sum[T Number](xs []T) T {
	var total T
	for _, x := range xs {
		total += x
	}
	return total
}

type Pair[K comparable, V any] struct {
	Key K
	Val V
}

func (p Pair[K, V]) Swapped(v V, k K) Pair[K, V] {
	return Pair[K, V]{Key: k, Val: v}
}

var (
	ints   = Sum([]int{1, 2, 3})
	floats = Sum[float64]([]float64{1, 2})
	pair   = Pair[string, int]{Key: "a", Val: 1}.Swapped(2, "b")
)
`)
	pkg, err := NewLoader().LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors on generic code: %v", pkg.TypeErrors)
	}
	if pkg.Pkg == nil || pkg.Pkg.Scope().Lookup("Sum") == nil {
		t.Fatal("generic function Sum missing from package scope")
	}
	// The type-checker must have resolved the instantiations: every
	// loaded package's Info carries Uses for the analyzers to consume.
	if len(pkg.Info.Uses) == 0 {
		t.Fatal("Info.Uses is empty; instantiation resolution failed")
	}
}

// TestLoadFixtureTree pins the multi-package fixture contract: the root
// loads as fixture/<base>, subdirectories as fixture/<base>/<sub>, the
// returned order puts imports before importers, and cross-package
// references resolve against the same *types.Package pointers.
func TestLoadFixtureTree(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Base(dir)
	writeFixture(t, dir, "dep/dep.go", `package dep

func Answer() int { return 42 }
`)
	writeFixture(t, dir, "root.go", `package root

import "fixture/`+base+`/dep"

var X = dep.Answer()
`)
	pkgs, err := NewLoader().LoadFixtureTree(dir)
	if err != nil {
		t.Fatalf("LoadFixtureTree: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	if pkgs[0].Path != "fixture/"+base+"/dep" || pkgs[1].Path != "fixture/"+base {
		t.Fatalf("order = [%s, %s], want dep before root", pkgs[0].Path, pkgs[1].Path)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
	// The root's view of the dep package must be the same pointer the
	// tree returned, not a re-imported copy.
	var depFromRoot *Package
	for _, imp := range pkgs[1].Pkg.Imports() {
		if imp.Path() == pkgs[0].Path {
			if imp != pkgs[0].Pkg {
				t.Fatal("root imported a distinct copy of the dep package")
			}
			depFromRoot = pkgs[0]
		}
	}
	if depFromRoot == nil {
		t.Fatal("root package does not record its fixture import")
	}
}

// TestLoadNarrowPatternSeesModule pins reach's two loader contracts on a
// real module: a narrow pattern still loads the whole module, so a use in
// a package the pattern leaves out counts; and a use is found across the
// source importer's per-importer copies of a package, which an identity
// match would miss (the fixture tree shares one copy, so only a module
// load can show it).
func TestLoadNarrowPatternSeesModule(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "go.mod", "module smokescreen\n\ngo 1.22\n")
	writeFixture(t, dir, "internal/lib/lib.go", `package lib

func Used() int { return 1 }

func Unused() int { return 2 }
`)
	writeFixture(t, dir, "main.go", `package main

import "smokescreen/internal/lib"

func main() { println(lib.Used()) }
`)
	// The source importer resolves module imports from the working
	// directory (go/build runs `go list` there), so load from the module
	// root, as smokevet does.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	matched, all, err := NewLoader().Load(".", "./internal/lib")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(matched) != 1 || matched[0].Path != "smokescreen/internal/lib" || len(all) != 2 {
		t.Fatalf("matched %d, loaded %d packages; want the pattern's one of the module's two", len(matched), len(all))
	}
	for _, p := range all {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: %v", p.Path, p.TypeErrors)
		}
	}
	diags, err := RunSuite(matched, all, []*Analyzer{Reach}, true)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "func Unused") {
		t.Fatalf("diags = %v, want exactly Unused", diags)
	}
}
