// Package callgraph is the shared cross-package call-graph pass that
// lockorder's summary (which hotpathlock reads too), ctxflow and
// poollease build on. It reports nothing itself; its value is
//
//   - the per-package Graph result: every declared function's call
//     sites with their statically resolved callees, plus CHA-style
//     candidate sets for interface method calls;
//   - the Impls package fact: which concrete in-repo methods implement
//     which interface methods. Each package exports its own
//     implementations unioned with those of its imports, so by the
//     time a package is analyzed the accumulated fact covers its whole
//     import closure — the facts channel is the import graph, which is
//     exactly the visibility a class-hierarchy analysis needs (an
//     implementation in a package nobody below you imports cannot be
//     called through any interface value you can construct).
//
// Resolution is deliberately conservative: a call through a plain
// function value stays unresolved (nil Static, no candidates), and
// consumers treat unresolved callees per their own sound default.
package callgraph

import (
	"cmp"
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis/ftc"
)

// A Ref names a function cross-package: the fact key pair.
type Ref struct {
	PkgPath string
	ObjKey  string
}

// String renders the ref for diagnostics ("pkg.(*T).M" shortened to
// the package's base name).
func (r Ref) String() string {
	base := r.PkgPath
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return base + "." + r.ObjKey
}

// ShortRef renders a function object for diagnostics, e.g.
// "memtier.(*Tier).Get".
func ShortRef(obj types.Object) string {
	if ref, ok := MakeRef(obj); ok {
		return ref.String()
	}
	return obj.Name()
}

// MakeRef builds the cross-package ref for a function object, if it is
// package-level.
func MakeRef(fn types.Object) (Ref, bool) {
	if fn == nil || fn.Pkg() == nil {
		return Ref{}, false
	}
	key, ok := ftc.ObjectKey(fn)
	if !ok {
		return Ref{}, false
	}
	return Ref{PkgPath: fn.Pkg().Path(), ObjKey: key}, true
}

// Impls is the accumulated package fact: interface method → concrete
// in-repo implementations, covering this package and its whole import
// closure.
type Impls struct {
	Entries []ImplEntry
}

// AFact marks Impls as a fact.
func (*Impls) AFact() {}

// An ImplEntry records that Impl's method implements
// (IfacePkg.Iface).Method.
type ImplEntry struct {
	IfacePkg string
	Iface    string
	Method   string
	Impl     Ref
}

// A Graph is the per-package call-graph result.
type Graph struct {
	pass *ftc.Pass
	// sites maps each call expression in the package to its resolution.
	sites map[*ast.CallExpr]Resolution
	// impls is the accumulated implementation index, keyed by
	// interface method.
	impls map[implKey][]Ref
}

// A Resolution is what a call site dispatches to.
type Resolution struct {
	// Static is the called function object for direct calls and
	// concrete method calls (same-package or imported), nil otherwise.
	Static types.Object
	// Candidates are the CHA candidates for an interface method call:
	// every in-repo implementation visible in the import closure.
	Candidates []Ref
	// Iface is the interface method object for interface calls.
	Iface *types.Func
}

type implKey struct{ pkg, iface, method string }

// Analyzer is the callgraph pass.
var Analyzer = &ftc.Analyzer{
	Name:      "callgraph",
	Doc:       "builds the cross-package call graph (static calls + CHA interface resolution) consumed by the interprocedural analyzers",
	FactTypes: []ftc.Fact{(*Impls)(nil)},
	Run:       run,
}

func run(pass *ftc.Pass) (any, error) {
	g := &Graph{
		pass:  pass,
		sites: map[*ast.CallExpr]Resolution{},
		impls: map[implKey][]Ref{},
	}

	// Accumulate implementation entries: imports' facts first, then
	// this package's own types against every visible interface. The
	// candidate order is this accumulation order; the exported fact is
	// sorted.
	seen := map[ImplEntry]bool{}
	var accumulated []ImplEntry
	add := func(entries []ImplEntry) {
		for _, e := range entries {
			if !seen[e] {
				seen[e] = true
				k := implKey{e.IfacePkg, e.Iface, e.Method}
				g.impls[k] = append(g.impls[k], e.Impl)
				accumulated = append(accumulated, e)
			}
		}
	}
	for _, imp := range pass.Pkg.Imports() {
		var dep Impls
		if pass.ImportPackageFact(imp, &dep) {
			add(dep.Entries)
		}
	}
	add(localImpls(pass))
	slices.SortFunc(accumulated, func(a, b ImplEntry) int {
		return cmp.Or(cmp.Compare(a.IfacePkg, b.IfacePkg), cmp.Compare(a.Iface, b.Iface), cmp.Compare(a.Method, b.Method),
			cmp.Compare(a.Impl.PkgPath, b.Impl.PkgPath), cmp.Compare(a.Impl.ObjKey, b.Impl.ObjKey))
	})
	pass.ExportPackageFact(&Impls{Entries: accumulated})

	// Resolve every call site.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.sites[call] = g.resolve(call)
			return true
		})
	}
	return g, nil
}

// ResolveCall returns the resolution of a call expression in the
// analyzed package (zero Resolution for unknown calls).
func (g *Graph) ResolveCall(call *ast.CallExpr) Resolution {
	return g.sites[call]
}

// localImpls scans the package's named types against every interface
// visible in the package or its import closure and records which
// interface methods they implement.
func localImpls(pass *ftc.Pass) []ImplEntry {
	ifaces := visibleInterfaces(pass.Pkg)
	var out []ImplEntry
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		for _, cand := range []types.Type{named, types.NewPointer(named)} {
			for _, entry := range ifaces {
				if !types.Implements(cand, entry.iface) {
					continue
				}
				for i := 0; i < entry.iface.NumMethods(); i++ {
					m := entry.iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(cand, true, pass.Pkg, m.Name())
					fn, ok := obj.(*types.Func)
					if !ok || fn.Pkg() != pass.Pkg {
						continue // promoted from an embedded foreign type: its home package exports it
					}
					if ref, ok := MakeRef(fn); ok {
						out = append(out, ImplEntry{
							IfacePkg: entry.pkgPath,
							Iface:    entry.name,
							Method:   m.Name(),
							Impl:     ref,
						})
					}
				}
			}
		}
	}
	return out
}

type ifaceEntry struct {
	pkgPath string
	name    string
	iface   *types.Interface
}

// visibleInterfaces enumerates the non-empty interfaces declared in
// pkg and its transitive imports.
func visibleInterfaces(pkg *types.Package) []ifaceEntry {
	var out []ifaceEntry
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 {
				continue
			}
			out = append(out, ifaceEntry{pkgPath: p.Path(), name: name, iface: iface})
		}
	}
	visit(pkg)
	return out
}

// resolve classifies one call site.
func (g *Graph) resolve(call *ast.CallExpr) Resolution {
	info := g.pass.Info
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok {
				if isIfaceMethod(fn) {
					return Resolution{Iface: fn, Candidates: g.ifaceCandidates(fn)}
				}
				return Resolution{Static: fn}
			}
		}
	}
	if obj := ftc.CalleeObject(info, call); obj != nil {
		if fn, ok := obj.(*types.Func); ok && isIfaceMethod(fn) {
			return Resolution{Iface: fn, Candidates: g.ifaceCandidates(fn)}
		}
		return Resolution{Static: obj}
	}
	return Resolution{}
}

// isIfaceMethod reports whether fn is an abstract (interface) method.
func isIfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// ifaceCandidates looks up the accumulated CHA candidates for an
// interface method.
func (g *Graph) ifaceCandidates(m *types.Func) []Ref {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil // anonymous interface: no stable key
	}
	pkgPath := ""
	if named.Obj().Pkg() != nil {
		pkgPath = named.Obj().Pkg().Path()
	}
	return g.impls[implKey{pkgPath, named.Obj().Name(), m.Name()}]
}
