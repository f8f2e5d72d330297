package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Reach keeps the product holding only what a request reaches: an
// exported func, type, var, const or method declared in a non-test file
// under internal/ must be used by non-test code somewhere in the module
// (its own package included). A declaration only tests call is a finding:
// delete it, move the helper into the test, or keep it with a reasoned
// //smokevet:ignore reach (the frozen benchmark module's hooks are the
// usual reason — that module is not loaded, so its uses do not count).
//
// It is the suite's one module-wide analyzer: the uses come from every
// package in pass.All, so a narrow smokevet pattern still sees the
// module's uses. Declarations and uses are matched by (package path,
// receiver type name, name), never by types.Object identity — the source
// importer gives each importing package its own copy of a dependency's
// objects, so identity would find no cross-package use.
//
// A method whose name and signature match a method of any interface type
// in the loaded packages or their imports (the standard library and the
// predeclared error included) is skipped: it may be called through the
// interface (String, Error, ReadByte, ServeHTTP, ...), which no use site
// names. Chains are out of reach: an export used only by another unused
// export counts as used until that one goes.
var Reach = &Analyzer{
	Name: "reach",
	Doc:  "flag an exported internal/ declaration that no non-test code in the module uses",
	Match: func(path string) bool {
		return strings.HasPrefix(path, "smokescreen/internal/")
	},
	Run: runReach,
}

// reachKey names a declaration the same way in every package's copy of it.
type reachKey struct{ pkg, recv, name string }

func runReach(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	path := pass.Pkg.Path()
	used := map[reachKey]bool{}
	for _, pkg := range pass.All {
		recvIdents := receiverIdents(pkg.Files)
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || obj.Pkg().Path() != path || recvIdents[id] {
				continue
			}
			if k, ok := reachKeyOf(obj); ok {
				used[k] = true
			}
		}
	}
	var ifaces map[string]bool // built on the first exported method
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pass.Info.Defs[d.Name].(*types.Func)
				if fn == nil || !fn.Exported() {
					continue
				}
				kind := "func"
				if d.Recv != nil {
					kind = "method"
					if ifaces == nil {
						ifaces = interfaceMethods(pass.All)
					}
					if ifaces[methodKey(fn.Name(), fn.Type().(*types.Signature))] {
						continue
					}
				}
				reportUnreached(pass, used, d.Name, kind)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						reportUnreached(pass, used, s.Name, "type")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							reportUnreached(pass, used, name, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

func reportUnreached(pass *Pass, used map[reachKey]bool, name *ast.Ident, kind string) {
	obj := pass.Info.Defs[name]
	if obj == nil || !obj.Exported() {
		return
	}
	k, ok := reachKeyOf(obj)
	if !ok || used[k] {
		return
	}
	label := k.name
	if k.recv != "" {
		label = k.recv + "." + k.name
	}
	pass.Report(name.Pos(), "exported %s %s has no use outside _test.go files in the module: delete it, or keep it with //smokevet:ignore reach: <reason>", kind, label)
}

// reachKeyOf keys a package-level object or a method of a named type;
// locals, fields and interface methods have no key.
func reachKeyOf(obj types.Object) (reachKey, bool) {
	switch o := obj.(type) {
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			break
		}
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		n, ok := t.(*types.Named)
		if !ok || types.IsInterface(n) {
			return reachKey{}, false
		}
		return reachKey{o.Pkg().Path(), n.Obj().Name(), o.Name()}, true
	case *types.Var, *types.Const, *types.TypeName:
	default:
		return reachKey{}, false
	}
	if obj.Parent() == nil || obj.Parent() != obj.Pkg().Scope() {
		return reachKey{}, false
	}
	return reachKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// receiverIdents collects the identifiers of method receiver types: a
// type named only by its own methods' receivers is not reached.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						out[id] = true
					}
					return true
				})
			}
		}
	}
	return out
}

// interfaceMethods returns the methodKey of every method of every
// interface type declared in the loaded packages, their transitive
// imports and the universe, plus interface literals the loaded packages
// spell out (x.(interface{ Flush() error })).
func interfaceMethods(all []*Package) map[string]bool {
	out := map[string]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			out[methodKey(m.Name(), m.Type().(*types.Signature))] = true
		}
	}
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	addScope(types.Universe)
	// errors.Is, As and Unwrap assert these unnamed interfaces inside
	// their bodies, which the importer does not expose.
	for _, k := range []string{"Unwrap()(error)", "Unwrap()([]error)", "Is(error)(bool)", "As(any)(bool)"} {
		out[k] = true
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		addScope(p.Scope())
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range all {
		walk(pkg.Pkg)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// methodKey renders a method's name and parameter and result types with
// full package paths, so the same method matches across package copies.
func methodKey(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(name)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
