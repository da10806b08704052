// Package analysistest runs ftclint analyzers over small GOPATH-style
// testdata packages and checks their diagnostics against expectations
// written in the source as trailing comments:
//
//	reg.Counter("x", err.Error()) // want `unbounded label value`
//
// Each `// want` comment carries one or more quoted regular
// expressions (double- or back-quoted); each must match a distinct
// diagnostic reported on that line. Diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the
// test. A line with no want comment asserts no diagnostic — including
// violations suppressed by a `//ftclint:ignore` on that line, which is
// how suppression honoring is tested.
//
// Fixture packages live in a GOPATH-style tree (srcRoot/<import path>):
// an import that names a directory under srcRoot is type-checked from
// source — the stub wire, rpc and memtier packages the analyzers key on
// — and every other import from the standard library's export data.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/ftc"
)

// expectation is one quoted regexp from a want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads srcRoot/pkgPath, applies the analyzers, and diffs the
// diagnostics against the package's want comments.
func Run(t *testing.T, srcRoot, pkgPath string, analyzers ...*ftc.Analyzer) {
	t.Helper()
	RunMulti(t, srcRoot, []string{pkgPath}, analyzers...)
}

// RunMulti is the multi-package harness for interprocedural analyzers:
// it loads every listed package from one shared loader, analyzes them
// in the given order with one shared FactStore — list dependencies
// before their importers, the order in which cmd/go hands a vet tool
// its units — and diffs diagnostics against want comments across all
// of them. Facts exported while analyzing src/a are visible when src/b
// (which imports a) is analyzed.
func RunMulti(t *testing.T, srcRoot string, pkgPaths []string, analyzers ...*ftc.Analyzer) {
	t.Helper()
	pkgs, err := Load(srcRoot, pkgPaths...)
	if err != nil {
		t.Fatalf("loading %v: %v", pkgPaths, err)
	}

	var expects []*expectation
	for _, pkg := range pkgs {
		es, err := collectWants(pkg)
		if err != nil {
			t.Fatal(err)
		}
		expects = append(expects, es...)
	}

	facts := ftc.NewFactStore()
	for _, pkg := range pkgs {
		diags, err := ftc.RunPackage(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers, facts)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !claim(expects, pos, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
			}
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.re)
		}
	}
}

// claim marks the first unmet expectation on the diagnostic's line
// whose pattern matches the message.
func claim(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if !e.met && e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(msg) {
			e.met = true
			return true
		}
	}
	return false
}

// collectWants extracts every want expectation from the package's
// comments.
func collectWants(pkg *Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments are not expectations
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parsePatterns(text)
				if err != nil {
					return nil, fmt.Errorf("%s: bad want comment: %v", pos, err)
				}
				for _, re := range res {
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

// parsePatterns splits a want payload into its quoted regexps.
func parsePatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected quoted regexp, found %q", s)
		}
		lit, rest, err := cutQuoted(s)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
		s = rest
	}
}

// cutQuoted unquotes the Go string literal at the front of s.
func cutQuoted(s string) (lit, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quote == '"':
			i++
		case s[i] == quote:
			lit, err = strconv.Unquote(s[:i+1])
			return lit, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", s)
}

// A Package is one parsed and type-checked fixture package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load type-checks the fixture packages at the srcRoot-relative import
// paths with one loader — one FileSet, each package checked once even
// when listed and imported — and returns them in the given order.
func Load(srcRoot string, pkgPaths ...string) ([]*Package, error) {
	l := &loader{srcRoot: srcRoot, fset: token.NewFileSet(), loaded: map[string]*Package{}}
	if err := l.listStdlib(); err != nil {
		return nil, err
	}
	out := make([]*Package, len(pkgPaths))
	for i, path := range pkgPaths {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		out[i] = pkg
	}
	return out, nil
}

// loader resolves fixture imports: packages under srcRoot from source,
// the rest from the export data `go list -export` compiled for them.
type loader struct {
	srcRoot string
	fset    *token.FileSet
	loaded  map[string]*Package
	gc      types.ImporterFrom
}

func (l *loader) isFixture(path string) bool {
	st, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// listStdlib collects every import in the tree that is not a fixture
// package and asks `go list -deps -export` for their export data.
func (l *loader) listStdlib() error {
	seen := map[string]bool{}
	err := filepath.Walk(l.srcRoot, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			if p := strings.Trim(spec.Path.Value, `"`); !l.isFixture(p) {
				seen[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	exports := map[string]string{}
	if len(seen) > 0 {
		args := []string{"list", "-deps", "-export", "-json=ImportPath,Export"}
		for p := range seen {
			args = append(args, p)
		}
		sort.Strings(args[4:])
		cmd := exec.Command("go", args...)
		cmd.Dir = l.srcRoot
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list: %v\n%s", err, stderr.String())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("go list: %v", err)
			}
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	l.gc = importer.ForCompiler(l.fset, "gc", lookup).(types.ImporterFrom)
	return nil
}

// Import resolves an import for the type checker: a fixture package
// already loaded from source, or export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg := l.loaded[path]; pkg != nil {
		return pkg.Types, nil
	}
	return l.gc.ImportFrom(path, "", 0)
}

// load type-checks the fixture package at path, loading the fixture
// packages it imports from source first.
func (l *loader) load(path string) (*Package, error) {
	if pkg := l.loaded[path]; pkg != nil {
		return pkg, nil
	}
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if p := strings.Trim(spec.Path.Value, `"`); l.isFixture(p) {
				if _, err := l.load(p); err != nil {
					return nil, err
				}
			}
		}
	}
	tpkg, info, err := ftc.Check(l.fset, path, files, l)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = pkg
	return pkg, nil
}
