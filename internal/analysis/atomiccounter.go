package analysis

import (
	"go/ast"
	"go/types"
)

// Atomiccounter keeps shared counters (the plan.Stages and detect.Stats
// accounting) on the typed atomics: any call to the function-style
// sync/atomic API (atomic.AddInt64(&x, ...) and friends) is a finding. A
// variable reached that way can also be read or written plainly — a race,
// and a tear on 32-bit platforms — while atomic.Int64, atomic.Pointer and
// their siblings keep the value unexported, so every access is atomic by
// construction. The module uses only the typed form; this keeps a hasty
// "just bump the counter" edit from reintroducing the other.
var Atomiccounter = &Analyzer{
	Name: "atomiccounter",
	Doc:  "flag calls to the function-style sync/atomic API (use the typed atomics: atomic.Int64, atomic.Pointer, ...)",
	Run:  runAtomiccounter,
}

func runAtomiccounter(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				pass.Report(call.Pos(),
					"atomic.%s is the function-style sync/atomic API, which leaves the variable open to plain access: use the typed atomics (atomic.Int64, atomic.Pointer, ...)", fn.Name())
			}
			return true
		})
	}
	return nil
}
