package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow enforces the cancellation contract threaded end to end in the
// plan/execute pipeline: a cancelled context must stop detector work, and
// no library function may silently detach from the caller's context.
//
// Three rules, applied to smokescreen/internal packages (mains and _test.go
// files are exempt). They keep the numbers DESIGN.md §10 records: rule 3,
// no direct wall-clock reads in fleetd, guarded an injected Clock that no
// test faked once the fleet's leases went, and retired with it.
//
//  1. context.Background()/context.TODO() must not appear inside any
//     function that was handed a context.Context (including closures
//     nested in one): minting a fresh root there severs cancellation.
//     A function with no context parameter is a compatibility root (the
//     non-Ctx wrapper APIs, figure drivers, daemon job roots) and may
//     mint Background — but only to pass it directly into a context-
//     aware callee. context.TODO() is never acceptable: the codebase is
//     fully threaded, so there is no "not sure yet" context.
//  2. An exported function that takes a context and calls a *Ctx-suffixed
//     callee must pass a context along — calling SweepFractionsCtx
//     without ctx while holding one is exactly the drift the suffix
//     convention exists to prevent.
//  4. The compat-wrapper convention itself is retired: an exported
//     function or method F declared beside an exported context-taking FCtx
//     (package-level siblings for functions, same-receiver siblings for
//     methods) is a finding at F's declaration. F can only root its work
//     in context.Background(), so every caller that holds a context and
//     picks the shorter name silently detaches the callee's subtree from
//     cancellation; with one entry point there is nothing to pick wrong.
//     The one sanctioned pair is camera.Node.Stream/StreamCtx, which the
//     frozen benchmark calls by the short name (a reasoned suppression
//     says so).

var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Background()/TODO() that sever cancellation in internal " +
		"packages, ctx-taking exported functions that call *Ctx callees without the context, " +
		"and an exported F declared beside an exported FCtx",
	Match: func(path string) bool {
		return strings.HasPrefix(path, "smokescreen/internal/") || strings.HasPrefix(path, "fixture/")
	},
	Run: runCtxflow,
}

func runCtxflow(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return nil
	}
	checkCtxTwins(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBackgroundUse(pass, fd)
			checkCtxForwarding(pass, fd)
		}
	}
	return nil
}

// checkCtxTwins applies rule 4: every exported, context-free function or
// method declared in the package beside a context-taking <Name>Ctx sibling
// (same scope, or same receiver) is reported at its declaration.
func checkCtxTwins(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || funcHasCtxParam(pass, fd) {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			var sibling types.Object
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				sibling, _, _ = types.LookupFieldOrMethod(recv.Type(), true, pass.Pkg, fn.Name()+"Ctx")
			} else {
				sibling = pass.Pkg.Scope().Lookup(fn.Name() + "Ctx")
			}
			variant, ok := sibling.(*types.Func)
			if !ok || !hasContextParam(variant.Type().(*types.Signature)) {
				continue
			}
			pass.Report(fd.Name.Pos(),
				"%s is declared beside %s: the context-free twin can only root its work in context.Background — delete it and have callers pass their ctx to %s",
				fn.Name(), variant.Name(), variant.Name())
		}
	}
}

// funcHasCtxParam reports whether the declared function takes a context.
func funcHasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	return ok && hasContextParam(sig)
}

// litHasCtxParam reports whether the function literal takes a context.
func litHasCtxParam(pass *Pass, lit *ast.FuncLit) bool {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	return ok && hasContextParam(sig)
}

// checkBackgroundUse walks one declared function, tracking whether the
// innermost context is "holding a ctx" (the declaration or any enclosing
// closure takes one), and applies rule 1.
func checkBackgroundUse(pass *Pass, fd *ast.FuncDecl) {
	depth := 0 // number of enclosing funcs that take a ctx
	if funcHasCtxParam(pass, fd) {
		depth++
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if litHasCtxParam(pass, n) {
				depth++
				ast.Inspect(n.Body, walk)
				depth--
			} else {
				// A closure inherits its environment: if any enclosing
				// function holds a ctx, the closure does too.
				ast.Inspect(n.Body, walk)
			}
			return false
		case *ast.CallExpr:
			name := backgroundOrTODO(pass, n)
			if name == "" {
				return true
			}
			if name == "TODO" {
				pass.Report(n.Pos(), "context.TODO() in library code: the pipeline is fully context-threaded, pass the caller's ctx")
				return true
			}
			if depth > 0 {
				pass.Report(n.Pos(), "context.Background() inside a function that was handed a context: this severs cancellation — pass the caller's ctx")
				return true
			}
			if !feedsContextAwareCall(pass, fd, n) {
				pass.Report(n.Pos(), "context.Background() is not passed directly into a context-aware call: compatibility roots may only mint a context to forward it")
			}
			return true
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// backgroundOrTODO returns "Background", "TODO", or "".
func backgroundOrTODO(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if n := fn.Name(); n == "Background" || n == "TODO" {
		return n
	}
	return ""
}

// feedsContextAwareCall reports whether the Background() call appears as
// a direct argument of some call whose callee takes a context.Context.
func feedsContextAwareCall(pass *Pass, fd *ast.FuncDecl, bg *ast.CallExpr) bool {
	ok := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call == bg {
			return true
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) != bg {
				continue
			}
			if fn := calleeFunc(pass.Info, call); fn != nil {
				if sig, isSig := fn.Type().(*types.Signature); isSig && hasContextParam(sig) {
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}

// checkCtxForwarding applies rule 2: an exported ctx-taking function
// calling a *Ctx-suffixed callee must pass a context argument.
func checkCtxForwarding(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || !funcHasCtxParam(pass, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !strings.HasSuffix(name, "Ctx") || name == "Ctx" {
			return true
		}
		for _, arg := range call.Args {
			if tv, ok := pass.Info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
				return true
			}
		}
		pass.Report(call.Pos(),
			"%s holds a context but calls %s without passing one: cancellation is severed mid-pipeline", fd.Name.Name, name)
		return true
	})
}
