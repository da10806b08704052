// Package atomicfield keeps atomics typed: module code calls none of
// sync/atomic's functions (atomic.AddInt64(&s.n, 1), LoadUint32, ...),
// all of which take a pointer to a plain field. A field reached that
// way can still be read or written plainly, and that race only shows
// under -race when the interleaving happens to occur — the bug in the
// sharded stores' first draft (corpus seed plainatomic). The typed
// atomics (atomic.Int64, atomic.Pointer, ...) have only atomic
// methods, so with them the plain access cannot be written.
package atomicfield

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/ftc"
)

// Analyzer is the atomicfield pass.
var Analyzer = &ftc.Analyzer{
	Name: "atomicfield",
	Doc:  "use the typed atomics (atomic.Int64, ...), never a sync/atomic function on a plain field",
	Run: func(pass *ftc.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := ftc.CalleeObject(pass.Info, call).(*types.Func)
				if ok && ftc.PkgPathIs(fn.Pkg(), "sync/atomic") && fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(call.Pos(), "atomic.%s on a plain value; declare it as a typed atomic so no access can skip sync/atomic", fn.Name())
				}
				return true
			})
		}
		return nil, nil
	},
}
