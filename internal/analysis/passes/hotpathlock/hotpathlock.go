// Package hotpathlock enforces the lock-free hot-path discipline
// introduced with the COW hash ring (DESIGN.md §8): a function whose
// doc comment carries `//ftc:hotpath` must not
//
//   - acquire a mutex-class primitive: (*sync.Mutex).Lock,
//     (*sync.RWMutex).Lock/RLock, (*sync.Once).Do,
//     (*sync.WaitGroup).Wait, (*sync.Cond).Wait;
//   - write to (or delete from) a map that is not local to the
//     function — concurrent map writes are the canonical lock-needing
//     operation, so a shared map write inside a lock-free function is
//     either a race or a hidden lock dependency;
//   - call into package fmt — the fmt fast paths allocate and take
//     interface round-trips the per-I/O path must not pay;
//   - call any function that does any of the above, in this package or
//     another. A callee marked `//ftc:hotpath` is trusted: it is
//     checked at its own definition.
//
// The rule is computed by lockorder.Summary on the same walk that
// summarizes locks: each function's first breach travels to callers,
// across packages too, as the Hot field of its LockFact, and this pass
// reports every breach inside a marked body. Interface-dispatched
// calls are checked against the call graph's CHA candidates: the call
// is reported only when every known in-repo implementation is
// hot-unsafe (one safe implementation means the dispatch may be fine,
// and guessing would be noise).
package hotpathlock

import (
	"go/ast"

	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/lockorder"
)

// Analyzer is the hotpathlock pass.
var Analyzer = &ftc.Analyzer{
	Name:     "hotpathlock",
	Doc:      "functions marked //ftc:hotpath must not lock, write shared maps, or call fmt (transitively, across packages via facts)",
	Requires: []*ftc.Analyzer{lockorder.Summary},
	Run:      run,
}

func run(pass *ftc.Pass) (any, error) {
	sums := pass.ResultOf[lockorder.Summary].(*lockorder.Summaries)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && ftc.HasHotPath(fd) {
				for _, b := range sums.Breaches(fd) {
					pass.Reportf(b.Pos, "hot-path function %s %s", fd.Name.Name, b.What)
				}
			}
		}
	}
	return nil, nil
}
