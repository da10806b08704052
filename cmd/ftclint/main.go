// Command ftclint runs the FT-Cache analyzer suite (internal/analysis)
// as a cmd/go vet tool:
//
//	go install ./cmd/ftclint
//	go vet -vettool="$(go env GOPATH)/bin/ftclint" ./...
//
// It speaks cmd/go's vet-tool protocol (the contract x/tools'
// unitchecker implements): it answers -V=full with a build identity
// that keys cmd/go's cache of its results, answers -flags with an empty
// flag set, and analyzes one package per *.cfg file. The cfg names the
// package's files, its import → export-data maps, and its
// dependencies' fact files (PackageVetx); cmd/go hands units over in
// dependency order, so every import's facts exist before its importer
// is analyzed. The facts this package holds are written to VetxOutput
// for the units downstream. Findings go to stderr as
// file:line:col: analyzer: message, and the exit status is non-zero
// when any survive suppression.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ftc"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		found, err := runUnit(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftclint:", err)
			os.Exit(1)
		}
		if found {
			os.Exit(2)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(command -v ftclint) [packages]\n\nAnalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a justified false positive with\n  //ftclint:ignore <analyzer> <reason>\non or directly above the reported line.\n")
}

// printVersion emits the `name version ...` line cmd/go hashes into
// its cache key: the binary's own digest, so rebuilt analyzers
// invalidate every cached result.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("ftclint version devel buildID=%x\n", h.Sum(nil)[:16])
}

// vetConfig is the part of the JSON cmd/go writes for each unit
// (cmd/go/internal/work's vetConfig) that ftclint reads.
type vetConfig struct {
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string // import path as written -> canonical path
	PackageFile map[string]string // canonical path -> export data file
	PackageVetx map[string]string // canonical path -> dependency fact file

	VetxOnly   bool
	VetxOutput string

	SucceedOnTypecheckFailure bool
}

// vetImporter resolves a package's imports using the cfg maps: the
// source-level path goes through ImportMap (test variants) and the
// canonical path through PackageFile to export data.
type vetImporter struct {
	cfg *vetConfig
	gc  types.ImporterFrom
}

func (v *vetImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := v.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return v.gc.ImportFrom(path, "", 0)
}

// moduleScope is the import-path prefix the suite analyzes: the module
// that built this binary. cmd/go drives a vet tool over every
// dependency unit — the standard library included — to thread facts
// through the graph, but analyzing the runtime's own source would tag
// nearly every function as blocking (mallocgc can start a GC cycle
// that parks on a channel) and bury the module's findings.
func moduleScope() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		return bi.Main.Path
	}
	return "repro"
}

// runUnit analyzes one vet-protocol unit and reports whether it
// printed findings.
func runUnit(cfgFile string) (bool, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return false, err
	}
	cfg := &vetConfig{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return false, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}

	// Units outside the module export an empty fact set and report
	// nothing; cmd/go still expects the vetx file to exist.
	if mod := moduleScope(); cfg.ImportPath != mod && !strings.HasPrefix(cfg.ImportPath, mod+"/") {
		return false, writeVetx(cfg, nil)
	}

	// Each vetx file carries its package's whole fact closure, so the
	// union over the direct dependencies covers the import graph.
	suite := analysis.All()
	ftc.RegisterFactTypes(suite)
	facts := ftc.NewFactStore()
	for _, vetxFile := range cfg.PackageVetx {
		data, err := os.ReadFile(vetxFile)
		if err != nil {
			return false, err
		}
		if err := facts.DecodeFacts(data); err != nil {
			return false, fmt.Errorf("reading facts from %s: %v", vetxFile, err)
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return false, nil
			}
			return false, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := &vetImporter{cfg: cfg, gc: importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)}
	pkg, info, err := ftc.Check(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return false, nil
		}
		return false, err
	}

	diags, err := ftc.RunPackage(fset, files, pkg, info, suite, facts)
	if err != nil {
		return false, err
	}
	blob, err := facts.Encode()
	if err != nil {
		return false, err
	}
	if err := writeVetx(cfg, blob); err != nil || cfg.VetxOnly {
		return false, err
	}

	found := false
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		// Test variants flow through vet too; the suite targets
		// shipped code, so findings in _test.go files are dropped.
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		found = true
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	return found, nil
}

// writeVetx writes the unit's facts for downstream units, if cmd/go
// asked for them.
func writeVetx(cfg *vetConfig, blob []byte) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, blob, 0o666)
}
