package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// testFact is a gob-encodable fact used only by these tests.
type testFact struct {
	Note string
}

func (*testFact) AFact() {}

func checkTestPkg(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Error: func(error) {}}
	tpkg, _ := conf.Check(path, fset, []*ast.File{f}, info)
	return &Package{
		Path:         path,
		Fset:         fset,
		Files:        []*ast.File{f},
		Pkg:          tpkg,
		Info:         info,
		Suppressions: indexSuppressions(fset, []*ast.File{f}),
	}
}

// TestObjectFactKeyStability pins the canonical fact keys: functions key
// by FullName (methods include the receiver), everything else by
// pkgPath.Name. These strings are the cross-package identity of a fact —
// the types.Object pointers of a directly-analyzed package and the same
// package re-imported as a dependency differ, so any drift here silently
// breaks every fact lookup.
func TestObjectFactKeyStability(t *testing.T) {
	pkg := checkTestPkg(t, "example.com/keys", `package keys

var Sentinel int

func Fn() {}

type T struct{}

func (T) Value()    {}
func (*T) Pointer() {}
`)
	scope := pkg.Pkg.Scope()
	want := map[string]string{
		"Sentinel": "example.com/keys.Sentinel",
		"Fn":       "example.com/keys.Fn",
	}
	for name, key := range want {
		if got := objectFactKey(scope.Lookup(name)); got != key {
			t.Errorf("objectFactKey(%s) = %q, want %q", name, got, key)
		}
	}
	tObj := scope.Lookup("T").Type()
	for i := 0; i < types.NewMethodSet(types.NewPointer(tObj)).Len(); i++ {
		m := types.NewMethodSet(types.NewPointer(tObj)).At(i).Obj().(*types.Func)
		wantKey := map[string]string{
			"Value":   "(example.com/keys.T).Value",
			"Pointer": "(*example.com/keys.T).Pointer",
		}[m.Name()]
		if got := objectFactKey(m); got != wantKey {
			t.Errorf("objectFactKey(%s) = %q, want %q", m.Name(), got, wantKey)
		}
	}
}

// TestFactSetGobRoundTrip pins that facts only cross package boundaries
// through the gob encoding — and that the encoding is deterministic, so
// equal fact sets produce equal bytes (the property a future on-disk
// fact cache would content-address by).
func TestFactSetGobRoundTrip(t *testing.T) {
	st := newFactStore()
	if err := st.register([]*Analyzer{{Name: "t", FactTypes: []Fact{&testFact{}}}}); err != nil {
		t.Fatal(err)
	}
	build := func() *factSet {
		s := newFactSet()
		s.put("pkg.A", &testFact{Note: "alpha"})
		s.put("pkg.B", &testFact{Note: "beta"})
		return s
	}
	blob1, err := build().encode()
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := build().encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob1) != string(blob2) {
		t.Error("equal fact sets encoded to different bytes")
	}
	decoded, err := decodeFactSet(blob1)
	if err != nil {
		t.Fatal(err)
	}
	var got testFact
	if !decoded.get("pkg.A", &got) || got.Note != "alpha" {
		t.Errorf("object fact after round trip = %+v", got)
	}
	if decoded.get("pkg.C", &got) {
		t.Error("decoded set invented a fact for an unknown key")
	}
	// Decoding must yield a copy: mutating the decoded fact cannot reach
	// the encoded archive.
	var again testFact
	got.Note = "mutated"
	if decoded.get("pkg.A", &again); again.Note != "alpha" {
		t.Error("get returned a shared pointer target, not a copy")
	}
}

func TestFactStoreRejectsNonPointerFactType(t *testing.T) {
	st := newFactStore()
	err := st.register([]*Analyzer{{Name: "bad", FactTypes: []Fact{badValueFact{}}}})
	if err == nil {
		t.Fatal("register accepted a non-pointer fact type")
	}
}

// badValueFact implements Fact with a value receiver so it can pose as a
// non-pointer fact type in the rejection test.
type badValueFact struct{}

func (badValueFact) AFact() {}

// TestRunSuiteFactFlow runs a fact-exporting analyzer over two synthetic
// packages wired dep-before-root and asserts the root's pass observes
// the dep's fact — through the gob round trip, never the live set — and
// that facts are invisible to packages analyzed before the exporter.
func TestRunSuiteFactFlow(t *testing.T) {
	dep := checkTestPkg(t, "example.com/dep", `package dep

func Exported() {}
`)
	// The root does not import dep through the type-checker here (that
	// path is covered by the fixture tests); the analyzer looks the fact
	// up through the dep's own object, which exercises the store.
	root := checkTestPkg(t, "example.com/root", `package root

func Uses() {}
`)
	root.Imports = []string{"example.com/dep"}

	var sawInDep, sawInRoot bool
	a := &Analyzer{
		Name:      "factflow",
		FactTypes: []Fact{&testFact{}},
		Run: func(pass *Pass) error {
			switch pass.Pkg.Path() {
			case "example.com/dep":
				obj := pass.Pkg.Scope().Lookup("Exported")
				pass.ExportObjectFact(obj, &testFact{Note: "from dep"})
				// Same-package import must see the still-live fact.
				var f testFact
				sawInDep = pass.ImportObjectFact(obj, &f) && f.Note == "from dep"
			case "example.com/root":
				var obj testFact
				if dep := depObject(); dep != nil {
					sawInRoot = pass.ImportObjectFact(dep, &obj) && obj.Note == "from dep"
				}
			}
			return nil
		},
	}
	// depObject resolves the dep's Exported func for the root's pass: the
	// runner keys facts by objectFactKey, so any object with the same
	// FullName resolves — here the dep package's own object stands in for
	// what an importing package would see.
	depObject = func() types.Object { return dep.Pkg.Scope().Lookup("Exported") }

	res, err := RunSuite([]*Package{root, dep}, []*Analyzer{a}, RunOptions{})
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("unexpected diagnostics: %v", res.Diagnostics)
	}
	if !sawInDep {
		t.Error("same-package fact import did not see the live export")
	}
	if !sawInRoot {
		t.Error("cross-package fact import failed despite dependency order")
	}
	// RunSuite must have visited dep before root even though the slice
	// listed root first — that ordering is what makes fact flow total.
	if len(res.Timings) != 1 || res.Timings[0].Name != "factflow" {
		t.Fatalf("timings = %+v, want one factflow entry", res.Timings)
	}
	if res.Timings[0].Duration <= 0 {
		t.Error("per-analyzer timing not recorded")
	}
}

// depObject is a test hook letting the analyzer in TestRunSuiteFactFlow
// reach the dep package's object from the root's pass.
var depObject func() types.Object
