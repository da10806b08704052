// Package poollease enforces the pooled-lease discipline (DESIGN.md
// §8, §15) over both lease-returning APIs:
//
//   - (*wire.FrameReader).ReadFramePooled: every successful call
//     returns a *wire.Buf lease that must reach Release exactly once,
//     and the frame payload aliasing the lease must not be used after
//     the release;
//   - (*memtier.Tier).Get: every ok==true hit returns a *memtier.Lease
//     that must reach Release exactly once — or be handed off, most
//     commonly as a Release method value stored into an
//     rpc.LeasedResp{Release: lease.Release} composite literal, which
//     transfers the obligation to the RPC flush path.
//
// The check is a path-sensitive walk of the acquiring function's body:
//
//   - on every path from the acquisition to a path end (return, branch,
//     loop re-entry, end of function) the lease must be released,
//     deferred for release, or handed off (passed to another function,
//     returned, or captured by a goroutine/closure that releases it);
//   - paths through an `if err != nil` guard on the acquisition's own
//     error are exempt — ReadFramePooled documents that an error
//     returns no lease; for Tier.Get the exempt paths
//     are the ok==false branches (a miss returns no lease);
//   - after an inline (non-deferred) Release, any further use of the
//     lease or the frame variable on that path is reported;
//   - returning the frame variable while the lease is released (or
//     deferred — defers run before the caller sees the value) is
//     reported, as is storing the frame or lease into a non-local
//     location without a release in the receiving code;
//   - a goroutine that captures the lease or frame without releasing
//     the lease is reported: the parent cannot know when the payload
//     stops being used.
//
// The walk is path-sensitive within the acquiring function and
// *interprocedural about handoffs*: passing the lease to another
// function only discharges the obligation when the callee actually
// consumes it. Each package exports a LeaseSinkFact for every function
// that releases (or hands further along) a lease-typed parameter, and
// the walker resolves call-site handoffs through the call graph: a
// statically known callee that does NOT sink the lease leaves the
// obligation with the caller, so a missing release downstream of a
// look-don't-own helper is still reported. Unresolvable callees
// (function values, stdlib) keep the old trusting behavior. Aliases
// remain syntactic (a copy of the frame struct is not tracked); the
// check is tuned to catch the real regression class — an early return
// added to a handler between the acquisition and the release.
package poollease

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/callgraph"
)

// A LeaseSinkFact records which of a function's parameters it consumes:
// a lease passed in one of these positions is released (directly,
// deferred, via a stored Release method value, or by handing it to
// another sink).
type LeaseSinkFact struct {
	Params []int
}

// AFact marks LeaseSinkFact as a fact.
func (*LeaseSinkFact) AFact() {}

// Analyzer is the poollease pass.
var Analyzer = &ftc.Analyzer{
	Name:      "poollease",
	Doc:       "every pooled lease (wire.FrameReader.ReadFramePooled, memtier.Tier.Get) must reach Release on all paths, and the payload must not be used after release",
	Requires:  []*ftc.Analyzer{callgraph.Analyzer},
	FactTypes: []ftc.Fact{(*LeaseSinkFact)(nil)},
	Run:       run,
}

func run(pass *ftc.Pass) (any, error) {
	s := &sinks{
		pass:      pass,
		graph:     pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph),
		summaries: map[types.Object][]int{},
		onStack:   map[types.Object]bool{},
	}
	// Sink summaries first (and their facts), so both this package's
	// walkers and downstream packages can resolve handoffs.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			params := s.summarize(obj, fd)
			if _, exportable := ftc.ObjectKey(obj); exportable && len(params) > 0 {
				pass.ExportObjectFact(obj, &LeaseSinkFact{Params: params})
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, s, fd)
		}
	}
	return nil, nil
}

// isLeaseType matches the two pooled-lease types: *wire.Buf and
// *memtier.Lease (matched by package name so testdata stubs qualify).
func isLeaseType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	switch obj.Name() {
	case "Buf":
		return ftc.PkgNamed(obj.Pkg(), "wire")
	case "Lease":
		return ftc.PkgNamed(obj.Pkg(), "memtier")
	}
	return false
}

// sinks computes which lease-typed parameters a function consumes.
type sinks struct {
	pass      *ftc.Pass
	graph     *callgraph.Graph
	summaries map[types.Object][]int
	onStack   map[types.Object]bool
}

// summarize returns the (sorted) indices of fd's lease-typed parameters
// that its body consumes.
func (s *sinks) summarize(obj types.Object, fd *ast.FuncDecl) []int {
	if sum, ok := s.summaries[obj]; ok {
		return sum
	}
	if s.onStack[obj] {
		return nil
	}
	s.onStack[obj] = true
	defer func() { s.onStack[obj] = false }()

	info := s.pass.Info
	// Collect lease-typed parameter objects with their indices.
	var paramObjs []types.Object
	var paramIdx []int
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				if i < len(field.Names) {
					if po, ok := info.Defs[field.Names[i]].(*types.Var); ok && isLeaseType(po.Type()) {
						paramObjs = append(paramObjs, po)
						paramIdx = append(paramIdx, idx)
					}
				}
				idx++
			}
		}
	}
	var out []int
	for i, po := range paramObjs {
		if s.consumes(fd.Body, po) {
			out = append(out, paramIdx[i])
		}
	}
	s.summaries[obj] = out
	return out
}

// consumes reports whether body releases obj: obj.Release() (called or
// deferred), obj.Release taken as a method value (stored somewhere that
// will run it), or obj passed onward in a sink position of a resolvable
// callee.
func (s *sinks) consumes(body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Release" {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && s.pass.Info.Uses[id] == obj {
					found = true
				}
			}
		case *ast.CallExpr:
			for i, arg := range n.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok || s.pass.Info.Uses[id] != obj {
					continue
				}
				if s.callSinksArg(n, i) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// callSinksArg decides whether argument position i of call reaches a
// consuming callee: same-package summaries, cross-package
// LeaseSinkFacts, or — for unresolvable callees — trusted by default.
func (s *sinks) callSinksArg(call *ast.CallExpr, i int) bool {
	res := s.graph.ResolveCall(call)
	fn := res.Static
	if fn == nil {
		if res.Iface != nil {
			// Interface dispatch: sink if any known candidate sinks.
			for _, cand := range res.Candidates {
				var fact LeaseSinkFact
				if s.pass.ImportFactByKey(cand.PkgPath, cand.ObjKey, &fact) && containsInt(fact.Params, i) {
					return true
				}
			}
			return false
		}
		return true // function value: unknowable, trust the handoff
	}
	if fn.Pkg() == s.pass.Pkg {
		if fd := ftc.FuncFor(s.pass.Info, s.pass.Files, fn); fd != nil && fd.Body == nil {
			return true // bodyless (assembly/external): trust
		} else if fd != nil {
			return containsInt(s.summarize(fn, fd), i)
		}
		return true
	}
	var fact LeaseSinkFact
	if s.pass.ImportObjectFact(fn, &fact) {
		return containsInt(fact.Params, i)
	}
	// No fact: either a stdlib/unanalyzed callee (trust) or an analyzed
	// repo function that provably does not sink (reject). Repo packages
	// are exactly the ones with a module-prefixed path in the fact
	// store's world; the practical discriminator is whether the callee
	// has lease-typed parameters at all — if it does and no fact was
	// exported, its home package was analyzed and found it non-consuming.
	if sig, ok := fn.Type().(*types.Signature); ok {
		for j := 0; j < sig.Params().Len(); j++ {
			if isLeaseType(sig.Params().At(j).Type()) {
				return false
			}
		}
	}
	return true
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// isReadFramePooled matches calls to (*wire.FrameReader).ReadFramePooled.
func isReadFramePooled(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := ftc.CalleeObject(info, call).(*types.Func)
	return ok && fn.Name() == "ReadFramePooled" && ftc.PkgNamed(fn.Pkg(), "wire")
}

// isMemtierGet matches calls to (*memtier.Tier).Get — the RAM tier's
// lease-returning read: `lease, ok := tier.Get(path)`.
func isMemtierGet(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := ftc.CalleeObject(info, call).(*types.Func)
	if !ok || fn.Name() != "Get" || !ftc.PkgNamed(fn.Pkg(), "memtier") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	// Results (*Lease, bool) distinguish the tier read from any other
	// memtier Get that may appear later.
	res := sig.Results()
	if res.Len() != 2 {
		return false
	}
	basic, ok := res.At(1).Type().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// acquisition is one lease-acquiring call site: either
// `frame, lease, err := fr.ReadFramePooled()` or
// `lease, ok := tier.Get(path)`.
type acquisition struct {
	stmt  *ast.AssignStmt
	call  *ast.CallExpr
	what  string       // API name for diagnostics
	frame types.Object // may be nil (assigned to _, or a Get acquisition)
	lease types.Object // may be nil: that is itself a finding
	err   types.Object // may be nil (err-guarded acquisitions only)
	ok    types.Object // may be nil (ok-guarded acquisitions only)
}

func checkFunc(pass *ftc.Pass, s *sinks, fd *ast.FuncDecl) {
	var acqs []acquisition
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					switch {
					case isReadFramePooled(pass.Info, call):
						a := acquisition{stmt: n, call: call, what: "FrameReader.ReadFramePooled"}
						if len(n.Lhs) == 3 {
							a.frame = lhsObject(pass.Info, n.Lhs[0])
							a.lease = lhsObject(pass.Info, n.Lhs[1])
							a.err = lhsObject(pass.Info, n.Lhs[2])
						}
						acqs = append(acqs, a)
					case isMemtierGet(pass.Info, call):
						a := acquisition{stmt: n, call: call, what: "memtier.Tier.Get"}
						if len(n.Lhs) == 2 {
							a.lease = lhsObject(pass.Info, n.Lhs[0])
							a.ok = lhsObject(pass.Info, n.Lhs[1])
						}
						acqs = append(acqs, a)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				switch {
				case isReadFramePooled(pass.Info, call):
					pass.Reportf(call.Pos(), "FrameReader.ReadFramePooled result discarded: the lease can never be released")
				case isMemtierGet(pass.Info, call):
					pass.Reportf(call.Pos(), "memtier.Tier.Get result discarded: a hit's lease can never be released (use Has for existence checks)")
				}
			}
		}
		return true
	})
	for _, a := range acqs {
		if a.lease == nil {
			pass.Reportf(a.call.Pos(), "%s lease assigned to _: the lease can never be released", a.what)
			continue
		}
		w := &walker{
			pass:     pass,
			sinks:    s,
			fn:       fd,
			acq:      a,
			reported: map[token.Pos]bool{},
		}
		ends := w.walkStmts(fd.Body.List, state{})
		for _, st := range ends {
			w.endPath(fd.Body.Rbrace, st)
		}
	}
}

func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// state is the lease obligation along one control-flow path.
type state struct {
	active    bool // the acquisition has executed on this path
	released  bool // Release called, deferred, or ownership handed off
	deferred  bool // released via defer (payload valid until return)
	handoff   bool // ownership transferred (call arg, return, goroutine)
	errorPath bool // inside the acquisition's own err != nil branch
	relPos    token.Pos
}

type walker struct {
	pass     *ftc.Pass
	sinks    *sinks
	fn       *ast.FuncDecl
	acq      acquisition
	reported map[token.Pos]bool
	// loopDepth tracks whether the acquisition happened inside the
	// innermost loop currently being walked (per-iteration obligation).
	loops []*ast.BlockStmt
}

func (w *walker) reportf(pos token.Pos, format string, args ...any) {
	if !w.reported[pos] {
		w.reported[pos] = true
		w.pass.Reportf(pos, format, args...)
	}
}

// endPath checks the obligation where a path terminates.
func (w *walker) endPath(pos token.Pos, st state) {
	if !st.active || st.released || st.errorPath {
		return
	}
	w.reportf(pos, "%s lease acquired at %s is not released on this path",
		w.acq.what, w.pass.Fset.Position(w.acq.call.Pos()))
}

// usesObj reports whether n references obj.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	if obj == nil || n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isReleaseCall matches lease.Release().
func (w *walker) isReleaseCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && w.pass.Info.Uses[id] == w.acq.lease
}

// containsRelease reports whether n contains lease.Release() anywhere
// (used for closures and goroutines that take over the lease).
func (w *walker) containsRelease(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok && w.isReleaseCall(call) {
			found = true
		}
		return !found
	})
	return found
}

// checkAfterRelease flags uses of the lease or frame after an inline
// release. skip is the node (if any) that legitimately mentions them.
func (w *walker) checkAfterRelease(n ast.Node, st state) {
	if !st.active || !st.released || st.deferred || st.handoff {
		return
	}
	for _, obj := range []types.Object{w.acq.lease, w.acq.frame} {
		if obj == nil {
			continue
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && w.isReleaseCall(call) {
				return false // double Release is a documented no-op
			}
			if id, ok := c.(*ast.Ident); ok && w.pass.Info.Uses[id] == obj {
				w.reportf(id.Pos(), "%s used after the pooled lease was released at %s",
					id.Name, w.pass.Fset.Position(st.relPos))
			}
			return true
		})
	}
}

// walkStmts walks a statement list, returning the states that fall
// through its end.
func (w *walker) walkStmts(stmts []ast.Stmt, st state) []state {
	cur := []state{st}
	for _, s := range stmts {
		var next []state
		for _, c := range cur {
			next = append(next, w.walkStmt(s, c)...)
		}
		cur = dedupe(next)
		if len(cur) == 0 {
			break // every path terminated
		}
	}
	return cur
}

// dedupe collapses identical path states so branch-heavy functions
// stay linear instead of exponential.
func dedupe(states []state) []state {
	if len(states) < 2 {
		return states
	}
	seen := map[state]bool{}
	out := states[:0]
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// errGuard classifies an if-condition as a guard on the acquisition's
// validity: `err != nil` / `err == nil` for ReadFramePooled, `ok` /
// `!ok` for Tier.Get. Returns (isGuard, thenIsLeaseFreePath) — the
// lease-free branch carries no obligation (on error the lease is
// already released; on a miss there never was one).
func (w *walker) errGuard(cond ast.Expr) (bool, bool) {
	cond = ast.Unparen(cond)
	if w.acq.ok != nil {
		if id, isIdent := cond.(*ast.Ident); isIdent && w.pass.Info.Uses[id] == w.acq.ok {
			return true, false // then-branch holds the lease
		}
		if ue, isNot := cond.(*ast.UnaryExpr); isNot && ue.Op == token.NOT {
			if id, isIdent := ast.Unparen(ue.X).(*ast.Ident); isIdent && w.pass.Info.Uses[id] == w.acq.ok {
				return true, true // then-branch is the miss path
			}
		}
		return false, false
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || w.acq.err == nil {
		return false, false
	}
	var other ast.Expr
	switch {
	case usesObj(w.pass.Info, be.X, w.acq.err):
		other = be.Y
	case usesObj(w.pass.Info, be.Y, w.acq.err):
		other = be.X
	default:
		return false, false
	}
	if id, ok := ast.Unparen(other).(*ast.Ident); !ok || id.Name != "nil" {
		return false, false
	}
	switch be.Op {
	case token.NEQ:
		return true, true
	case token.EQL:
		return true, false
	}
	return false, false
}

// scanExprEvents processes the lease events inside one evaluated
// expression tree: releases and handoffs. Returns the updated state.
func (w *walker) scanExprEvents(n ast.Node, st state) state {
	if !st.active || st.released {
		return st
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if st.released {
			return false
		}
		switch c := c.(type) {
		case *ast.CallExpr:
			if w.isReleaseCall(c) {
				st.released = true
				st.relPos = c.Pos()
				return false
			}
			// Lease passed to another function: a handoff only if the
			// callee consumes it — resolved through the call graph and,
			// cross-package, LeaseSinkFacts. A known non-consuming
			// callee (a look-don't-own helper) leaves the obligation
			// here.
			for i, arg := range c.Args {
				if usesObj(w.pass.Info, arg, w.acq.lease) {
					if w.sinks.callSinksArg(c, i) {
						st.released = true
						st.handoff = true
					}
					return false
				}
			}
		case *ast.SelectorExpr:
			// lease.Release as a method value (not a call — calls are
			// consumed above): ownership handoff to wherever the value
			// lands, canonically rpc.LeasedResp{Release: lease.Release}.
			if c.Sel.Name == "Release" {
				if id, isIdent := ast.Unparen(c.X).(*ast.Ident); isIdent && w.pass.Info.Uses[id] == w.acq.lease {
					st.released = true
					st.handoff = true
					return false
				}
			}
		case *ast.FuncLit:
			// A closure that releases the lease takes over the
			// obligation wherever it ends up running.
			if w.containsRelease(c) {
				st.released = true
				st.handoff = true
			}
			return false
		}
		return true
	})
	return st
}

func (w *walker) walkStmt(s ast.Stmt, st state) []state {
	// Activation: the acquisition statement itself.
	if s == ast.Stmt(w.acq.stmt) {
		st.active = true
		st.released = false
		st.errorPath = false
		return []state{st}
	}
	w.checkAfterRelease(s, st)

	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)

	case *ast.ExprStmt:
		return []state{w.scanExprEvents(s.X, st)}

	case *ast.AssignStmt:
		st = w.scanExprEvents(s, st)
		if st.active && !st.released {
			// Frame or lease stored into a non-local location.
			for _, lhs := range s.Lhs {
				root := ftc.RootIdent(lhs)
				if root == nil {
					continue
				}
				obj := w.pass.Info.Uses[root]
				if obj == nil {
					obj = w.pass.Info.Defs[root]
				}
				if ftc.DeclaredWithin(obj, w.fn.Body.Pos(), w.fn.Body.End()) {
					continue
				}
				for i, rhs := range s.Rhs {
					if i < len(s.Lhs) && s.Lhs[i] != lhs {
						continue
					}
					if usesObj(w.pass.Info, rhs, w.acq.frame) || usesObj(w.pass.Info, rhs, w.acq.lease) {
						w.reportf(rhs.Pos(), "pooled frame payload escapes to a non-local location; it becomes invalid when the lease is released")
					}
				}
			}
		}
		return []state{st}

	case *ast.DeferStmt:
		if st.active && !st.released {
			if w.isReleaseCall(s.Call) || w.containsRelease(s.Call) {
				st.released = true
				st.deferred = true
				st.relPos = s.Call.Pos()
				return []state{st}
			}
			for i, arg := range s.Call.Args {
				if usesObj(w.pass.Info, arg, w.acq.lease) && w.sinks.callSinksArg(s.Call, i) {
					st.released = true
					st.handoff = true
					return []state{st}
				}
			}
		}
		return []state{st}

	case *ast.GoStmt:
		if st.active && !st.released {
			if w.containsRelease(s.Call) {
				st.released = true
				st.handoff = true
				return []state{st}
			}
			if usesObj(w.pass.Info, s.Call, w.acq.lease) || usesObj(w.pass.Info, s.Call, w.acq.frame) {
				w.reportf(s.Pos(), "goroutine captures the pooled frame or lease without releasing it; hand the lease off with a deferred Release inside the goroutine")
			}
		}
		return []state{st}

	case *ast.ReturnStmt:
		if st.active && !st.released {
			// Returning the lease transfers ownership to the caller.
			for _, r := range s.Results {
				if usesObj(w.pass.Info, r, w.acq.lease) {
					return nil
				}
			}
		}
		if st.active && st.released && !st.handoff {
			for _, r := range s.Results {
				if usesObj(w.pass.Info, r, w.acq.frame) {
					w.reportf(s.Pos(), "returning the pooled frame payload: the lease's Release (at %s) invalidates it before the caller can look",
						w.pass.Fset.Position(st.relPos))
				}
			}
		}
		w.endPath(s.Pos(), st)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.CONTINUE, token.GOTO:
			w.endPath(s.Pos(), st)
			return nil
		case token.BREAK:
			// Conservative: the obligation must be resolved before
			// leaving the loop. A release after the loop is rejected;
			// restructure or annotate with //ftclint:ignore.
			w.endPath(s.Pos(), st)
			return nil
		}
		return []state{st}

	case *ast.IfStmt:
		if s.Init != nil {
			if s.Init == ast.Stmt(w.acq.stmt) {
				// `if lease, ok := tier.Get(p); ok { ... }` — the
				// acquisition lives in the if-init; the condition is
				// (almost always) its own guard.
				st.active = true
				st.released = false
				st.errorPath = false
			} else {
				st = w.scanExprEvents(s.Init, st)
			}
		}
		st = w.scanExprEvents(s.Cond, st)
		var out []state
		if guard, thenIsErr := w.errGuard(s.Cond); guard && st.active {
			thenSt, elseSt := st, st
			if thenIsErr {
				thenSt.errorPath = true
			} else {
				elseSt.errorPath = true
			}
			out = append(out, w.walkStmts([]ast.Stmt{s.Body}, thenSt)...)
			if s.Else != nil {
				out = append(out, w.walkStmts([]ast.Stmt{s.Else}, elseSt)...)
			} else {
				out = append(out, elseSt)
			}
			return out
		}
		out = append(out, w.walkStmts([]ast.Stmt{s.Body}, st)...)
		if s.Else != nil {
			out = append(out, w.walkStmts([]ast.Stmt{s.Else}, st)...)
		} else {
			out = append(out, st)
		}
		return out

	case *ast.ForStmt:
		return w.walkLoop(s.Body, st, s.Init, s.Cond, s.Post)

	case *ast.RangeStmt:
		return w.walkLoop(s.Body, st, nil, s.X, nil)

	case *ast.SwitchStmt:
		return w.walkCases(s.Body, st, s.Tag, s.Init)

	case *ast.TypeSwitchStmt:
		return w.walkCases(s.Body, st, nil, s.Init)

	case *ast.SelectStmt:
		var out []state
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			cst := st
			if comm.Comm != nil {
				cst = w.scanExprEvents(comm.Comm, cst)
			}
			out = append(out, w.walkStmts(comm.Body, cst)...)
		}
		if len(s.Body.List) == 0 {
			out = append(out, st)
		}
		return out

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)

	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		if n, ok := s.(ast.Node); ok {
			st = w.scanExprEvents(n, st)
		}
		return []state{st}

	default:
		return []state{st}
	}
}

// walkLoop walks a loop body. The acquisition may live inside the body
// (per-iteration obligation: must resolve by the end of the body) or
// outside it (the obligation simply flows through).
func (w *walker) walkLoop(body *ast.BlockStmt, st state, init ast.Stmt, cond ast.Expr, post ast.Stmt) []state {
	if init != nil {
		st = w.scanExprEvents(init, st)
	}
	if cond != nil {
		st = w.scanExprEvents(cond, st)
	}
	acqInside := body.Pos() <= w.acq.stmt.Pos() && w.acq.stmt.Pos() < body.End()
	exits := w.walkStmts(body.List, st)
	var out []state
	for _, ex := range exits {
		if acqInside && ex.active && !ex.released && !ex.errorPath {
			// Falling into the next iteration re-acquires a fresh
			// lease; this one leaks.
			w.endPath(body.Rbrace, ex)
			continue
		}
		out = append(out, ex)
	}
	// Zero-iteration path.
	out = append(out, st)
	return out
}

// walkCases forks the walk across switch case clauses.
func (w *walker) walkCases(body *ast.BlockStmt, st state, tag ast.Expr, init ast.Stmt) []state {
	if init != nil {
		st = w.scanExprEvents(init, st)
	}
	if tag != nil {
		st = w.scanExprEvents(tag, st)
	}
	var out []state
	hasDefault := false
	for _, cl := range body.List {
		clause, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		out = append(out, w.walkStmts(clause.Body, st)...)
	}
	if !hasDefault {
		out = append(out, st)
	}
	return out
}
