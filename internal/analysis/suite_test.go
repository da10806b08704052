package analysis_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/ftc"
	"repro/internal/analysis/load"
	"repro/internal/analysis/passes/atomicfield"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/errclass"
	"repro/internal/analysis/passes/gostop"
	"repro/internal/analysis/passes/hotpathlock"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/poollease"
	"repro/internal/analysis/passes/spanend"
	"repro/internal/analysis/passes/telemetrylabel"
)

// srcRoot locates internal/analysis/testdata/src relative to this file
// so the tests work from any working directory.
func srcRoot(t *testing.T) string {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Join(filepath.Dir(thisFile), "testdata", "src")
}

func TestPoollease(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "poollease", poollease.Analyzer)
}

func TestHotpathlock(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "hotpathlock", hotpathlock.Analyzer)
}

func TestErrclass(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "errclass", errclass.Analyzer)
}

func TestAtomicfield(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "atomicfield", atomicfield.Analyzer)
}

func TestSpanend(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "spanend", spanend.Analyzer)
}

func TestTelemetrylabel(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "telemetrylabel", telemetrylabel.Analyzer)
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "lockorder", lockorder.Analyzer)
}

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "ctxflow", ctxflow.Analyzer)
}

func TestGostop(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "gostop", gostop.Analyzer)
}

// The *Facts tests are the multi-package suites: dependencies are
// listed before their importers, and each asserts that a verdict
// computed in src/<x>2/dep crosses into src/<x>2/use as a fact.

func TestLockorderFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"lockorder2/dep", "lockorder2/use"}, lockorder.Analyzer)
}

func TestCtxflowFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"ctxflow2/dep", "ctxflow2/use"}, ctxflow.Analyzer)
}

func TestGostopFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"gostop2/dep", "gostop2/use"}, gostop.Analyzer)
}

func TestPoolleaseFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"poollease2/dep", "poollease2/use"}, poollease.Analyzer)
}

func TestHotpathlockFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"hotpathlock2/dep", "hotpathlock2/use"}, hotpathlock.Analyzer)
}

// repoSuite is the full suite's verdict on the whole module, formatted
// for t.Error. Loading and type-checking the module dominates the cost
// of both meta-tests, so the pass runs once and both read its result.
type repoSuite struct {
	diags []string // findings nothing suppressed
	stale []string // //ftclint:ignore sites that suppressed nothing
	err   error
}

var (
	repoSuiteOnce sync.Once
	repoSuiteRes  repoSuite
)

// runRepoSuite loads every module package in dependency order and runs
// the full suite over them with one shared fact store, so every
// interprocedural verdict crosses package boundaries exactly as in the
// standalone ftclint driver.
func runRepoSuite(t *testing.T) repoSuite {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	repoSuiteOnce.Do(func() {
		r := &repoSuiteRes
		_, thisFile, _, ok := runtime.Caller(0)
		if !ok {
			r.err = fmt.Errorf("runtime.Caller failed")
			return
		}
		repoRoot := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
		pkgs, err := load.Module(repoRoot, "./...")
		if err != nil {
			r.err = fmt.Errorf("loading module: %w", err)
			return
		}
		if len(pkgs) == 0 {
			r.err = fmt.Errorf("no packages loaded")
			return
		}
		facts := ftc.NewFactStore()
		for _, pkg := range pkgs {
			res, err := ftc.RunPackageEx(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analysis.All(), facts)
			if err != nil {
				r.err = fmt.Errorf("%s: %w", pkg.PkgPath, err)
				return
			}
			for _, d := range res.Diags {
				r.diags = append(r.diags, fmt.Sprintf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message))
			}
			for _, s := range res.Stale {
				r.stale = append(r.stale, fmt.Sprintf("%s: stale //ftclint:ignore %s: it suppresses nothing — delete it", pkg.Fset.Position(s.Pos), s.Analyzer))
			}
		}
	})
	if repoSuiteRes.err != nil {
		t.Fatal(repoSuiteRes.err)
	}
	return repoSuiteRes
}

// TestRepoIsClean is the meta-test: the full suite over the whole
// module must report nothing. A new finding either gets fixed or gets
// an explicit //ftclint:ignore with a reason — never left ambient.
func TestRepoIsClean(t *testing.T) {
	for _, d := range runRepoSuite(t).diags {
		t.Error(d)
	}
}

// TestSuppressionsAreLive audits every //ftclint:ignore in the repo:
// after the full suite runs, a suppression that silenced nothing is
// stale — the code it excused has been fixed or moved — and must be
// deleted rather than left to swallow a future, unrelated finding.
func TestSuppressionsAreLive(t *testing.T) {
	for _, s := range runRepoSuite(t).stale {
		t.Error(s)
	}
}
