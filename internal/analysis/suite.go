// Package analysis assembles the ftclint analyzer suite: the static
// checks that keep FT-Cache's concurrency and resource invariants
// machine-enforced. DESIGN.md §12 states each analyzer's rule, the
// seeded bugs in testdata/src/corpus that hold it, and its
// suppressions; cmd/ftclint runs the suite as a `go vet -vettool`.
package analysis

import (
	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/atomicfield"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/errclass"
	"repro/internal/analysis/passes/gostop"
	"repro/internal/analysis/passes/hotpathlock"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/poollease"
	"repro/internal/analysis/passes/telemetrylabel"
)

// All returns the full ftclint suite in stable order. The shared
// callgraph pass is not listed: it reports nothing and is pulled in
// through Requires by every analyzer that consumes it (ftc.Expand).
func All() []*ftc.Analyzer {
	return []*ftc.Analyzer{
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		errclass.Analyzer,
		gostop.Analyzer,
		hotpathlock.Analyzer,
		lockorder.Analyzer,
		poollease.Analyzer,
		telemetrylabel.Analyzer,
	}
}
