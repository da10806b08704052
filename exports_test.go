package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports lists the exported identifiers that no non-test code
// uses, keyed "pkg.Name", "pkg.Type.Method" or "pkg" (every export of
// the package), each with the reason it stays, which starts with one of
// exportReasons: the ROADMAP item names the open item that will give it
// a caller or delete it.
var testOnlyExports = map[string]string{
	"repro":                                  "public API: the root package's aliases are what README and the quickstart name",
	"analysistest":                           "test helper: runs an analyzer over its fixtures",
	"testutil":                               "test helper: goroutine-leak checks and the race-build switch",
	"core.VerifyRead":                        "test reference: checks a read against the dataset generator",
	"experiments.WriteCSV":                   "golden writer: only TestPaperCSVs -update runs it",
	"hvac.Client.Open":                       "ROADMAP item 15: the live trainer's loader reads through File.ReadAt",
	"hvac.Client.Prefetch":                   "ROADMAP item 8: item 16's minibatch reads consume it, or it goes",
	"loadctl.Group.Inflight":                 "test helper: hvac's tests check that no flight outlives its reads",
	"partition.ExpectedReceivers":            "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"partition.LoadCounts":                   "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"partition.MeasureFailure":               "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"partition.MovementReport.MovedFraction": "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"partition.NewJump":                      "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"partition.NewMultiHash":                 "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"partition.NewRange":                     "ROADMAP item 5: the placement comparison becomes an experiment, or the baselines go",
	"storage.NVMeModel.WriteTime":            "ROADMAP item 18: writes cost device time",
	"telemetry.Registry.Trace":               "test helper: the registry's event trace, read by the failure-path tests",
	"trace.SeedIDs":                          "test helper: seeded replay tests make span ids repeatable",
}

// exportReasons are the reasons an export may stay with only test
// callers.
var exportReasons = []string{"public API", "golden writer", "test helper", "test reference", "ROADMAP item"}

// modulePackage is one directory of the module's non-test Go files, as
// the build would compile them.
type modulePackage struct {
	dir   string // slash-separated, relative to the module root
	path  string // import path
	files []*ast.File
}

var (
	parseModuleOnce sync.Once
	moduleFset      = token.NewFileSet()
	modulePackages  []*modulePackage
	moduleErr       error
)

// parseModule walks the module once and parses every non-test Go file
// that the default build context selects, skipping testdata and hidden
// directories. The scans in this package share the result.
func parseModule(t *testing.T) []*modulePackage {
	t.Helper()
	parseModuleOnce.Do(func() {
		byDir := map[string]*modulePackage{}
		moduleErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.Dir(path)
			if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(moduleFset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p := byDir[dir]
			if p == nil {
				p = &modulePackage{dir: filepath.ToSlash(dir), path: "repro"}
				if dir != "." {
					p.path += "/" + p.dir
				}
				byDir[dir] = p
				modulePackages = append(modulePackages, p)
			}
			p.files = append(p.files, f)
			return nil
		})
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePackages
}

// TestEveryExportHasACaller type-checks the module's non-test files and
// fails on an exported package-level function, type, constant or
// variable, or an exported method, that no non-test file uses. A method
// is used too when it has the name and signature of a method of some
// interface, declared in the module or in a package the module imports,
// or is Unwrap() error: a caller can reach it through that interface.
// An export only tests use is deleted or unexported, unless
// testOnlyExports names what keeps it.
func TestEveryExportHasACaller(t *testing.T) {
	pkgs := parseModule(t)
	byPath := map[string]*modulePackage{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	// One go list finds the export data of every other package the
	// module imports; a go list per package would dominate the scan.
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); byPath[path] == nil {
					args = append(args, path)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	std := importer.ForCompiler(moduleFset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	typed := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := typed[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	// Check each package after the module packages it imports.
	var check func(p *modulePackage)
	check = func(p *modulePackage) {
		if _, done := typed[p.path]; done {
			return
		}
		typed[p.path] = nil
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if dep := byPath[strings.Trim(imp.Path.Value, `"`)]; dep != nil {
					check(dep)
				}
			}
		}
		tp, err := conf.Check(p.path, moduleFset, p.files, info)
		if err != nil {
			t.Fatal(err)
		}
		typed[p.path] = tp
	}
	for _, p := range pkgs {
		check(p)
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		used[obj] = true
	}
	// The methods of every interface declared in the module or in a
	// package it imports: a caller may reach an export through one.
	var ifaceMethods []*types.Func
	seen := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods = append(ifaceMethods, it.Method(i))
				}
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, p := range typed {
		addScope(p)
	}
	errorType := types.Universe.Lookup("error").Type()
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errorType)), false)
	satisfies := func(m *types.Func) bool {
		if m.Name() == "Unwrap" && types.Identical(m.Type(), unwrap) {
			return true
		}
		for _, im := range ifaceMethods {
			if im.Name() == m.Name() && types.Identical(im.Type(), m.Type()) {
				return true
			}
		}
		return false
	}

	type export struct {
		key string
		obj types.Object
	}
	var unused []export
	for _, p := range pkgs {
		tp := typed[p.path]
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused = append(unused, export{tp.Name() + "." + name, obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(m) {
					unused = append(unused, export{tp.Name() + "." + name + "." + m.Name(), m})
				}
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].obj.Pos() < unused[j].obj.Pos() })
	flagged := map[string]bool{}
	for _, e := range unused {
		pkg := e.key[:strings.IndexByte(e.key, '.')]
		switch {
		case testOnlyExports[e.key] != "":
			flagged[e.key] = true
		case testOnlyExports[pkg] != "":
			flagged[pkg] = true
		default:
			t.Errorf("%s: %s is used by no non-test code; delete it, unexport it, or name in testOnlyExports what keeps it", moduleFset.Position(e.obj.Pos()), e.key)
		}
	}
	checkAllowlist(t, "testOnlyExports", testOnlyExports, flagged)
	for key, reason := range testOnlyExports {
		if !slices.ContainsFunc(exportReasons, func(r string) bool { return strings.HasPrefix(reason, r) }) {
			t.Errorf("testOnlyExports entry %q: reason %q starts with none of %q", key, reason, exportReasons)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var roadmapItem = regexp.MustCompile(`ROADMAP item (\d+)`)

// checkAllowlist fails on an entry of list that flagged does not hold,
// and on a reason that names a ROADMAP item without a "#### N." heading
// in ROADMAP.md: closed items lose their bodies.
func checkAllowlist(t *testing.T, name string, list map[string]string, flagged map[string]bool) {
	t.Helper()
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	for key, reason := range list {
		if !flagged[key] {
			t.Errorf("%s entry %q names nothing the scan flags; delete it", name, key)
		}
		for _, m := range roadmapItem.FindAllStringSubmatch(reason, -1) {
			if !regexp.MustCompile(`(?m)^#### ` + m[1] + `\.`).Match(roadmap) {
				t.Errorf("%s entry %q names ROADMAP item %s, which is not open", name, key, m[1])
			}
		}
	}
}
