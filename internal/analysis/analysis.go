// Package analysis implements smokevet, the repo's custom static-analysis
// suite. It mechanically enforces the codebase's load-bearing invariants —
// bit-identical profile generation, end-to-end context flow, owned
// goroutines, one axis registry, and the error contract — that are
// otherwise guarded only by convention and a handful of determinism tests
// (see DESIGN.md §10).
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic; the tests' fixture runner in
// fixture_test.go is analysistest-style) but is built on the standard
// library alone: hermetic builders have no module proxy, so x/tools cannot
// be a dependency. Packages are loaded with `go list` and type-checked
// with the stdlib source importer; the resulting per-package Pass is what
// each analyzer sees. If x/tools ever becomes available the analyzers port
// mechanically — their Run functions only consume the Pass surface below.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and in scoped
	// `//smokevet:ignore name: reason` suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Match reports whether the analyzer applies to a package import
	// path. A nil Match applies everywhere. The fixture runner bypasses
	// Match so testdata packages exercise every analyzer regardless of
	// their synthetic import paths.
	Match func(pkgPath string) bool
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Report records one finding at pos.
	Report func(pos token.Pos, format string, args ...any)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// --- shared type-resolution helpers used by the analyzers ---

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeName returns the syntactic name of a call's callee — the bare
// identifier or selector field — or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isPkgFunc reports whether the call invokes pkgPath.name (a package-level
// function, not a method).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether the function type takes a
// context.Context anywhere in its parameter list.
func hasContextParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// objectOf resolves an identifier or selector expression to the object it
// denotes (variable, field), or nil.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		// Qualified identifier (pkg.Var).
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// isPackageLevel reports whether obj is a package-scope variable.
func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Parent().Parent() == types.Universe
}
