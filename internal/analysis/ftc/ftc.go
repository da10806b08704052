// Package ftc is the minimal static-analysis framework the ftclint
// analyzers are written against. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic) so the
// passes can be ported mechanically if that module ever becomes a
// dependency — but it is stdlib-only, because this repo vendors nothing.
//
// Two comment conventions are defined here and honored suite-wide:
//
//   - `//ftc:hotpath` in a function's doc comment marks it as part of
//     the lock-free hot path; the hotpathlock analyzer enforces the
//     concurrency rules of DESIGN.md §12 on marked functions and on
//     every same-package function they reach.
//   - `//ftclint:ignore <analyzer> <reason>` on (or immediately above)
//     a reported line suppresses that analyzer's finding there. The
//     reason is mandatory: a suppression without a justification is
//     itself reported, as is one that names no analyzer of the suite
//     or silences nothing.
package ftc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//ftclint:ignore <name> ...` suppressions.
	Name string
	// Doc is the one-paragraph rule statement ftclint lists when run
	// without arguments.
	Doc string
	// Requires lists analyzers that must run on the same package
	// first; their Run results are available via Pass.ResultOf. The
	// driver expands the set transitively (Expand).
	Requires []*Analyzer
	// FactTypes declares the Fact types this analyzer exports, for gob
	// registration. An analyzer that exports a fact type it does not
	// declare still works in-process but will not survive
	// serialization into vetx files.
	FactTypes []Fact
	// Run applies the check to one package, reports findings via
	// pass.Reportf, and may return a result value for analyzers that
	// Require it.
	Run func(*Pass) (any, error)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ResultOf holds the Run results of this analyzer's Requires,
	// keyed by analyzer.
	ResultOf map[*Analyzer]any

	facts  *FactStore
	report func(Diagnostic)
}

// Expand returns analyzers plus every analyzer reachable through
// Requires, dependencies first, each exactly once.
func Expand(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := map[*Analyzer]bool{}
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, dep := range a.Requires {
			visit(dep)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Check type-checks one package's parsed files with imp, filling every
// types.Info map the analyzers consult so no pass finds a nil map.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// HotPathDirective is the doc-comment directive marking a hot-path
// function.
const HotPathDirective = "//ftc:hotpath"

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//ftclint:ignore"

// HasHotPath reports whether fn's doc comment carries the
// `//ftc:hotpath` directive.
func HasHotPath(fn *ast.FuncDecl) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, HotPathDirective); ok {
			if text == "" || text[0] == ' ' || text[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// ignoreKey locates one suppression: a file/line pair plus the analyzer
// it silences.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions indexes every well-formed `//ftclint:ignore` comment in
// a package by the line it covers, and records which ones silenced a
// finding.
type suppressions struct {
	used  map[ignoreKey]bool // every key, true once it silenced a finding
	sites []ignoreSite
}

// An ignoreSite is one suppression comment at its own position (the
// comment, not the covered line), for the audit after the suite ran.
type ignoreSite struct {
	pos token.Pos
	key ignoreKey
}

// collectSuppressions scans files for suppression comments. A trailing
// ignore (sharing its line with code) covers only that line; a
// standalone ignore covers only the line below it — never both, so an
// ignore cannot silently swallow a second, unrelated finding. Malformed
// suppressions (missing analyzer or missing reason) are returned as
// diagnostics in their own right, attributed to "ftclint".
func collectSuppressions(fset *token.FileSet, files []*ast.File) (*suppressions, []Diagnostic) {
	s := &suppressions{used: map[ignoreKey]bool{}}
	var bad []Diagnostic
	for _, f := range files {
		codeLines := map[int]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil:
				return false
			case *ast.Comment, *ast.CommentGroup:
				return false
			}
			codeLines[fset.Position(n.Pos()).Line] = true
			codeLines[fset.Position(n.End()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "ftclint",
						Pos:      c.Pos(),
						Message:  "malformed ftclint:ignore: need `//ftclint:ignore <analyzer> <reason>`",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				if !codeLines[line] {
					line++ // standalone: covers the line below
				}
				key := ignoreKey{pos.Filename, line, fields[0]}
				s.used[key] = false
				s.sites = append(s.sites, ignoreSite{pos: c.Pos(), key: key})
			}
		}
	}
	return s, bad
}

// suppressed reports whether d is silenced by an ignore comment
// covering its line, and marks that suppression as live.
func (s *suppressions) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	key := ignoreKey{pos.Filename, pos.Line, d.Analyzer}
	if _, ok := s.used[key]; !ok {
		return false
	}
	s.used[key] = true
	return true
}

// audit reports the suppressions that cannot be right once the suite
// has run: one naming no analyzer that ran, and one that silenced
// nothing — the code it excused was fixed or moved, and a stale ignore
// would swallow the next, unrelated finding on its line. Both are
// attributed to the analyzer the ignore names.
func (s *suppressions) audit(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, site := range s.sites {
		name := site.key.analyzer
		switch {
		case !known[name]:
			out = append(out, Diagnostic{Analyzer: name, Pos: site.pos,
				Message: fmt.Sprintf("//ftclint:ignore names %q, which is not an analyzer in the suite", name)})
		case !s.used[site.key]:
			out = append(out, Diagnostic{Analyzer: name, Pos: site.pos,
				Message: "stale //ftclint:ignore: it suppresses nothing — delete it"})
		}
	}
	return out
}

// RunPackage applies the analyzers (expanded with their Requires) to
// one package and returns its findings ordered by position:
// everything no ignore silenced, malformed ignores, and the ignores
// the audit rejects. facts carries object and package facts across
// packages; pass nil for a single-package run.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	sup, diags := collectSuppressions(fset, files)
	known := map[string]bool{}
	results := map[*Analyzer]any{}
	for _, a := range Expand(analyzers) {
		known[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			ResultOf: results,
			facts:    facts,
			report: func(d Diagnostic) {
				if !sup.suppressed(fset, d) {
					diags = append(diags, d)
				}
			},
		}
		result, err := a.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		results[a] = result
	}
	diags = append(diags, sup.audit(known)...)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// --- shared type/AST helpers used by several passes ---

// PkgNamed reports whether pkg is named name. Analyzer keying matches
// on package *name* (wire, telemetry, hvac, rpc) rather than import
// path so the analysistest stub packages exercise the same code paths
// the real repro packages do.
func PkgNamed(pkg *types.Package, name string) bool {
	return pkg != nil && pkg.Name() == name
}

// PkgPathIs reports whether pkg's import path is exactly path (used
// for stdlib packages, whose paths are canonical everywhere).
func PkgPathIs(pkg *types.Package, path string) bool {
	return pkg != nil && pkg.Path() == path
}

// CalleeObject resolves the object a call expression invokes, seeing
// through parentheses. It returns nil for calls through function
// values, builtins, and type conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.Fn.
		if obj := info.Uses[fun.Sel]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	}
	return nil
}

// ReceiverNamed reports whether fn is a method whose receiver's named
// type is typeName declared in a package named pkgName.
func ReceiverNamed(fn *types.Func, pkgName, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && PkgNamed(obj.Pkg(), pkgName)
}

// FuncFor returns the FuncDecl in files whose declared object is obj,
// or nil. Used by call-graph-aware passes to find same-package callee
// bodies.
func FuncFor(info *types.Info, files []*ast.File, obj types.Object) *ast.FuncDecl {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if info.Defs[fd.Name] == obj {
				return fd
			}
		}
	}
	return nil
}

// RootIdent digs to the leftmost identifier of an expression chain
// (x, x.f, x[i].g, (*x).f → x), or nil if the root is not a plain
// identifier.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// DeclaredWithin reports whether obj is declared inside the half-open
// position interval [lo, hi) — e.g. local to a function body.
func DeclaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos().IsValid() && lo <= obj.Pos() && obj.Pos() < hi
}
