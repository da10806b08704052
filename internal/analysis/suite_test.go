package analysis_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/atomicfield"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/errclass"
	"repro/internal/analysis/passes/hotpathlock"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/poollease"
)

// thisDir is internal/analysis, located from this file so the tests
// work from any working directory.
func thisDir(t *testing.T) string {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(thisFile)
}

// srcRoot is the GOPATH-style fixture tree, testdata/src.
func srcRoot(t *testing.T) string {
	return filepath.Join(thisDir(t), "testdata", "src")
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

func TestLockorder(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "lockorder", lockorder.Analyzer)
}

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, srcRoot(t), "ctxflow", ctxflow.Analyzer)
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

func TestPoolleaseFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"poollease2/dep", "poollease2/use"}, poollease.Analyzer)
}

func TestHotpathlockFacts(t *testing.T) {
	analysistest.RunMulti(t, srcRoot(t), []string{"hotpathlock2/dep", "hotpathlock2/use"}, hotpathlock.Analyzer)
}

// corpus is the seeded-bug table: for each package under
// testdata/src/corpus, the exact set of analyzers whose findings the
// full suite reports on it. Each seed's doc comment says where the bug
// came from. An empty set is a gap: a bug class no analyzer catches.
var corpus = map[string][]string{
	"serverfill":     {"ctxflow"},
	"posixctx":       {"ctxflow"},
	"leaseerrpath":   {"poollease"},
	"lockedsend":     {"lockorder"},
	"notfoundfmt":    {"hotpathlock"},
	"errclassswitch": {"errclass"},
	"retryevidence":  {}, // gap: errclass guards only the timeout clause
	"plainatomic":    {"atomicfield"},
	"staleepoch":     {}, // gap: nothing compares a reply's epoch
	"batchlease":     {"poollease"},
}

// TestCorpus runs the full suite over every seed, one package at a
// time, and compares the analyzers that report on it with the table: a
// lost catch, a new catch, and a seed missing from the table all fail.
func TestCorpus(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join(srcRoot(t), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range ents {
		if _, ok := corpus[e.Name()]; !ok {
			t.Errorf("seed %s is not in the corpus table", e.Name())
		}
		paths = append(paths, "corpus/"+e.Name())
	}
	if len(paths) != len(corpus) {
		t.Errorf("corpus table has %d seeds, testdata/src/corpus %d", len(corpus), len(paths))
	}
	pkgs, err := analysistest.Load(srcRoot(t), paths...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := ftc.RunPackage(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analysis.All(), nil)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		caught := map[string]bool{}
		for _, d := range diags {
			caught[d.Analyzer] = true
			t.Logf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		got := []string{}
		for a := range caught {
			got = append(got, a)
		}
		sort.Strings(got)
		if want := corpus[strings.TrimPrefix(pkg.Path, "corpus/")]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: caught by %v, want %v", pkg.Path, got, want)
		}
	}
}

// ftclint is built once per test binary, into a directory TestMain
// removes.
var (
	ftclintOnce sync.Once
	ftclintBin  string
	ftclintErr  error
	ftclintDir  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if ftclintDir != "" {
		os.RemoveAll(ftclintDir)
	}
	os.Exit(code)
}

// buildFtclint returns the path of a freshly built cmd/ftclint.
func buildFtclint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds ftclint and runs go vet")
	}
	repo := filepath.Dir(filepath.Dir(thisDir(t)))
	ftclintOnce.Do(func() {
		if ftclintDir, ftclintErr = os.MkdirTemp("", "ftclint"); ftclintErr != nil {
			return
		}
		ftclintBin = filepath.Join(ftclintDir, "ftclint")
		cmd := exec.Command("go", "build", "-o", ftclintBin, "./cmd/ftclint")
		cmd.Dir = repo
		if out, err := cmd.CombinedOutput(); err != nil {
			ftclintErr = fmt.Errorf("building ftclint: %v\n%s", err, out)
		}
	})
	if ftclintErr != nil {
		t.Fatal(ftclintErr)
	}
	return ftclintBin
}

// vet runs `go vet -vettool=<ftclint>` over pattern in dir and returns
// its combined output and whether it exited 0.
func vet(t *testing.T, dir, pattern string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+buildFtclint(t), pattern)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return out.String(), err == nil
}

// TestRepoIsClean is the meta-test: the sweep CI and `make lint` run,
// over the whole module, must report nothing. A new finding either
// gets fixed or gets an explicit //ftclint:ignore with a reason, and
// an ignore that no longer silences anything fails the sweep too.
func TestRepoIsClean(t *testing.T) {
	repo := filepath.Dir(filepath.Dir(thisDir(t)))
	if out, ok := vet(t, repo, "./..."); !ok || out != "" {
		t.Errorf("go vet -vettool=ftclint ./... is not clean:\n%s", out)
	}
}

// TestSweepIsLive guards TestRepoIsClean against a sweep that analyzes
// nothing (a module-scope mismatch would skip every unit and still
// exit 0). In a scratch module it runs the same command over a copy of
// a corpus seed, over a stale ignore and over an ignore naming no
// analyzer: each must exit non-zero with its file:line:col: analyzer:
// line.
func TestSweepIsLive(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join(srcRoot(t), "corpus", "lockedsend", "lockedsend.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysistest.Load(srcRoot(t), "corpus/lockedsend")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := ftc.RunPackage(pkgs[0].Fset, pkgs[0].Files, pkgs[0].Types, pkgs[0].Info, analysis.All(), nil)
	if err != nil || len(diags) == 0 {
		t.Fatalf("the seed reports %v, %v in process", diags, err)
	}
	pos := pkgs[0].Fset.Position(diags[0].Pos)
	seedLine := fmt.Sprintf("seed/lockedsend.go:%d:%d: %s: ", pos.Line, pos.Column, diags[0].Analyzer)

	files := map[string]string{
		// ftclint analyzes only units of the module that built it.
		"go.mod":             "module repro\n\ngo 1.22\n",
		"seed/lockedsend.go": string(seed),
		"stale/stale.go":     "package stale\n\nfunc f() int {\n\t//ftclint:ignore lockorder nothing here blocks\n\treturn 1\n}\n",
		"unknown/unknown.go": "package unknown\n\nfunc f() int {\n\treturn 1 //ftclint:ignore lockordr misspelt\n}\n",
	}
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ pkg, want string }{
		{"./seed", seedLine},
		{"./stale", "stale/stale.go:4:2: lockorder: stale //ftclint:ignore"},
		{"./unknown", `unknown/unknown.go:4:11: lockordr: //ftclint:ignore names "lockordr"`},
	} {
		out, ok := vet(t, dir, c.pkg)
		if ok || !strings.Contains(out, c.want) {
			t.Errorf("go vet -vettool=ftclint %s: exit 0 = %v, want a failure with %q; output:\n%s", c.pkg, ok, c.want, out)
		}
	}
}
