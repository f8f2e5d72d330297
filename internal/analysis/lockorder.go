package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Lockorder guards the fleet/store/outputs locking discipline against
// acquisition cycles. Every mutex acquisition that happens while another
// mutex is held contributes a directed edge held->acquired to a lock-order
// graph. Edges also come from calls: a callee's lock set — computed
// transitively within the package and imported as a LocksFact for exported
// functions of other packages — is acquired "under" whatever the caller
// holds. Each package merges the graphs of its dependencies
// (LockGraphFact) with its own edges and reports any cycle a local edge
// completes: two packages that acquire the same two mutexes in opposite
// orders deadlock the first time a fleet forward and a store eviction
// interleave, and no per-package analysis can see it.
//
// The held-lock model is linear and syntactic: statements are visited in
// source order, defer x.Unlock() holds to function end, function
// literals are skipped (they run on another goroutine or later), and
// early-return branches under-approximate. That errs toward silence —
// acceptable for a gate whose cycles, when real, are catastrophic.

// LocksFact records the mutexes an exported function may acquire
// (directly or transitively), keyed by canonical lock name.
type LocksFact struct {
	Locks []string
}

func (*LocksFact) AFact() {}

// LockEdge is one held->acquired pair of the lock-order graph.
type LockEdge struct {
	From, To string
}

// LockGraphFact is a package's merged lock-order graph: its own edges
// plus every dependency's, so cycles assemble along the import chain.
type LockGraphFact struct {
	Edges []LockEdge
}

func (*LockGraphFact) AFact() {}

// lockorderPackages is the surface whose locks interact across package
// boundaries: the fleet routing layer, the store it fronts, and the
// outputs column store the generation path shares.
var lockorderPackages = map[string]bool{
	"smokescreen/internal/fleetd":  true,
	"smokescreen/internal/store":   true,
	"smokescreen/internal/outputs": true,
	"smokescreen/internal/server":  true,
	"smokescreen/internal/stream":  true,
}

// Lockorder is the lock-order analyzer.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "build the cross-package mutex-acquisition graph (via propagated lock-set facts), " +
		"report acquisition cycles",
	Match: func(path string) bool {
		return lockorderPackages[path] || strings.HasPrefix(path, "fixture/")
	},
	Run:       runLockorder,
	FactTypes: []Fact{(*LocksFact)(nil), (*LockGraphFact)(nil)},
}

// localEdge is a graph edge discovered in this package, with its report
// position.
type localEdge struct {
	LockEdge
	pos ast.Node
}

type lockorderState struct {
	pass *Pass
	// funcLocks maps each declared function to its transitive lock set.
	funcLocks map[*types.Func]map[string]bool
	// edges are this package's local acquisitions-under-lock.
	edges []localEdge
}

func runLockorder(pass *Pass) error {
	st := &lockorderState{pass: pass, funcLocks: map[*types.Func]map[string]bool{}}
	st.collectDirectLocks()
	st.closeOverCalls()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				st.walkHeld(fd)
			}
		}
	}
	st.reportCycles()
	st.exportFacts()
	return nil
}

// lockMethod classifies a call as a mutex acquire or release via the
// resolved callee; embedded mutexes resolve to the same (*sync.Mutex)
// methods.
func lockMethod(pass *Pass, call *ast.CallExpr) (recv ast.Expr, acquire, release bool) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return sel.X, true, false
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// lockID canonicalizes the mutex-bearing expression: a struct field
// becomes "(pkg.Type).field", a package variable "pkg.var", a local
// "func-local var". Unresolvable expressions (map elements, call
// results) return "".
func lockID(pass *Pass, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Info.ObjectOf(x)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if isPackageLevel(obj) {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return "func-local " + obj.Name()
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[x]; ok {
			t := sel.Recv()
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return ""
			}
			return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), sel.Obj().Name())
		}
		// Qualified package variable (pkg.Mu).
		obj := pass.Info.ObjectOf(x.Sel)
		if obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// collectDirectLocks records, per declared function, the locks it
// acquires directly, plus the fact-imported lock sets of cross-package
// callees (those are "direct" from this package's point of view).
func (st *lockorderState) collectDirectLocks() {
	for _, f := range st.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := st.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			set := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if recv, acquire, _ := lockMethod(st.pass, call); acquire {
					if id := lockID(st.pass, recv); id != "" {
						set[id] = true
					}
					return true
				}
				for _, l := range st.calleeFactLocks(call) {
					set[l] = true
				}
				return true
			})
			st.funcLocks[obj] = set
		}
	}
}

// calleeFactLocks returns the imported lock set of a cross-package
// callee, or nil.
func (st *lockorderState) calleeFactLocks(call *ast.CallExpr) []string {
	if st.pass.ImportObjectFact == nil {
		return nil
	}
	fn := calleeFunc(st.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == st.pass.Pkg {
		return nil
	}
	var fact LocksFact
	if !st.pass.ImportObjectFact(fn, &fact) {
		return nil
	}
	return fact.Locks
}

// closeOverCalls folds same-package callee lock sets into callers until
// the sets stop growing (the within-package transitive closure).
func (st *lockorderState) closeOverCalls() {
	calls := map[*types.Func][]*types.Func{}
	for _, f := range st.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, ok := st.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(st.pass.Info, call); callee != nil {
						if _, local := st.funcLocks[callee]; local {
							calls[caller] = append(calls[caller], callee)
						}
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			for _, callee := range callees {
				for l := range st.funcLocks[callee] {
					if !st.funcLocks[caller][l] {
						st.funcLocks[caller][l] = true
						changed = true
					}
				}
			}
		}
	}
}

// walkHeld runs the linear held-lock model over one function, recording
// graph edges.
func (st *lockorderState) walkHeld(fd *ast.FuncDecl) {
	var held []string // acquisition order, innermost last
	heldHas := func(id string) bool {
		for _, h := range held {
			if h == id {
				return true
			}
		}
		return false
	}
	deferred := map[string]bool{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // other goroutine / later execution
		case *ast.DeferStmt:
			if recv, _, release := lockMethod(st.pass, n.Call); release {
				if id := lockID(st.pass, recv); id != "" {
					deferred[id] = true // held to function end
				}
				return false
			}
			return true
		case *ast.CallExpr:
			recv, acquire, release := lockMethod(st.pass, n)
			switch {
			case acquire:
				id := lockID(st.pass, recv)
				if id == "" {
					return true
				}
				for _, h := range held {
					if h != id {
						st.edges = append(st.edges, localEdge{LockEdge{From: h, To: id}, n})
					}
				}
				held = append(held, id)
				return true
			case release:
				id := lockID(st.pass, recv)
				if id == "" || deferred[id] {
					return true
				}
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == id {
						held = append(held[:i:i], held[i+1:]...)
						break
					}
				}
				return true
			}
			if len(held) > 0 {
				// A callee's locks are acquired under everything we hold.
				for _, l := range st.calleeLocks(n) {
					for _, h := range held {
						if h != l && !heldHas(l) {
							st.edges = append(st.edges, localEdge{LockEdge{From: h, To: l}, n})
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// calleeLocks returns the lock set of a call's resolved callee — the
// package-local transitive set or the cross-package fact — sorted for
// deterministic edge order.
func (st *lockorderState) calleeLocks(call *ast.CallExpr) []string {
	fn := calleeFunc(st.pass.Info, call)
	if fn == nil {
		return nil
	}
	if set, ok := st.funcLocks[fn]; ok {
		out := make([]string, 0, len(set))
		for l := range set {
			out = append(out, l)
		}
		sort.Strings(out)
		return out
	}
	return st.calleeFactLocks(call)
}

// reportCycles merges dependency graphs with the local edges and reports
// every local edge that closes a cycle.
func (st *lockorderState) reportCycles() {
	adj := map[string]map[string]bool{}
	addEdge := func(e LockEdge) {
		if adj[e.From] == nil {
			adj[e.From] = map[string]bool{}
		}
		adj[e.From][e.To] = true
	}
	for _, e := range st.importedEdges() {
		addEdge(e)
	}
	for _, e := range st.edges {
		addEdge(e.LockEdge)
	}
	reported := map[LockEdge]bool{}
	for _, e := range st.edges {
		if reported[e.LockEdge] {
			continue
		}
		if path := findPath(adj, e.To, e.From); path != nil {
			reported[e.LockEdge] = true
			st.pass.Report(e.pos.Pos(),
				"acquiring %s while holding %s completes a lock-order cycle (%s -> %s): another path acquires them in the opposite order, which deadlocks under contention",
				shortLock(e.To), shortLock(e.From), shortLocks(path), shortLock(e.To))
		}
	}
}

// importedEdges merges the LockGraphFacts of every directly imported
// package (each of which already merged its own dependencies).
func (st *lockorderState) importedEdges() []LockEdge {
	if st.pass.Pkg == nil || st.pass.ImportPackageFact == nil {
		return nil
	}
	var out []LockEdge
	for _, imp := range st.pass.Pkg.Imports() {
		var fact LockGraphFact
		if st.pass.ImportPackageFact(imp.Path(), &fact) {
			out = append(out, fact.Edges...)
		}
	}
	return out
}

// findPath returns a path from -> ... -> to in the adjacency map, or nil.
func findPath(adj map[string]map[string]bool, from, to string) []string {
	seen := map[string]bool{from: true}
	var dfs func(n string, path []string) []string
	dfs = func(n string, path []string) []string {
		if n == to {
			return append(path, n)
		}
		next := make([]string, 0, len(adj[n]))
		for m := range adj[n] {
			next = append(next, m)
		}
		sort.Strings(next)
		for _, m := range next {
			if seen[m] {
				continue
			}
			seen[m] = true
			if p := dfs(m, append(path, n)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, nil)
}

// exportFacts publishes exported functions' lock sets and the merged
// graph for downstream packages.
func (st *lockorderState) exportFacts() {
	if st.pass.ExportObjectFact == nil || st.pass.ExportPackageFact == nil {
		return
	}
	for fn, set := range st.funcLocks {
		if len(set) == 0 || !fn.Exported() {
			continue
		}
		locks := make([]string, 0, len(set))
		for l := range set {
			if !strings.HasPrefix(l, "func-local ") {
				locks = append(locks, l)
			}
		}
		if len(locks) == 0 {
			continue
		}
		sort.Strings(locks)
		st.pass.ExportObjectFact(fn, &LocksFact{Locks: locks})
	}
	merged := map[LockEdge]bool{}
	for _, e := range st.importedEdges() {
		merged[e] = true
	}
	for _, e := range st.edges {
		if !strings.HasPrefix(e.From, "func-local ") && !strings.HasPrefix(e.To, "func-local ") {
			merged[e.LockEdge] = true
		}
	}
	if len(merged) == 0 {
		return
	}
	edges := make([]LockEdge, 0, len(merged))
	for e := range merged {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	st.pass.ExportPackageFact(&LockGraphFact{Edges: edges})
}

// shortLock strips the module path prefix for readable reports.
func shortLock(id string) string {
	return strings.ReplaceAll(id, "smokescreen/internal/", "")
}

func shortLocks(ids []string) string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = shortLock(id)
	}
	return strings.Join(out, " -> ")
}
