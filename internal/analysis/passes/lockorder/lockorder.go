// Package lockorder detects cross-package lock-ordering deadlock risk
// and blocking calls made while holding a lock (DESIGN.md §12).
//
// Locks are tracked by *class*, not instance: the (package, type,
// field) triple of the mutex — "memtier.shard.mu", "wire.
// CoalescedWriter.mu" — or the (package, var) pair for package-level
// mutexes. Two rules are enforced:
//
//   - lock-order cycles: whenever a function acquires class B while a
//     class-A lock is held (directly, or anywhere inside a callee —
//     resolved through the call graph and, across packages, through
//     LockFact facts), the analyzer records the edge A→B. Each package
//     exports its edges unioned with its imports' (EdgesFact), and a
//     cycle in the accumulated graph is reported in the package whose
//     own edge closes it. Same-class edges (shard[i] → shard[j]
//     hand-over-hand) are out of scope: ordering within a class is an
//     instance-level protocol (e.g. index order) this analysis cannot
//     see.
//
//   - blocking while holding: a channel send/receive, a select without
//     default, (*sync.WaitGroup).Wait, time.Sleep, network I/O
//     (net.Conn / net.Listener methods), or a call whose (possibly
//     imported) summary says it does any of those, executed while a
//     lock is held, is reported. (*sync.Cond).Wait is exempt — it
//     requires holding its lock by design.
//
// Function literals are analyzed as separate execution contexts
// (empty held set) and excluded from caller summaries: a closure's
// locks belong to whatever goroutine eventually runs it.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/callgraph"
)

// A LockFact summarizes one function for callers in other packages.
type LockFact struct {
	// Acquires lists the lock classes the function (transitively)
	// acquires.
	Acquires []string
	// Blocks is "" when the function cannot block, else a short
	// human-readable reason.
	Blocks string
}

// AFact marks LockFact as a fact.
func (*LockFact) AFact() {}

// An Edge is one observed lock-order constraint: To was acquired while
// From was held.
type Edge struct {
	From, To string
	// Pos is the acquiring call site ("file:line"), Pkg the package
	// whose analysis recorded the edge.
	Pos string
	Pkg string
}

// EdgesFact is the accumulated lock-order graph: this package's edges
// plus every import's.
type EdgesFact struct {
	Edges []Edge
}

// AFact marks EdgesFact as a fact.
func (*EdgesFact) AFact() {}

// Analyzer is the lockorder pass.
var Analyzer = &ftc.Analyzer{
	Name:      "lockorder",
	Doc:       "report cross-package lock-acquisition cycles and blocking calls (channel ops, Wait, network I/O) made while holding a lock",
	Requires:  []*ftc.Analyzer{callgraph.Analyzer},
	FactTypes: []ftc.Fact{(*LockFact)(nil), (*EdgesFact)(nil)},
	Run:       run,
}

// ShortClass renders a lock class for diagnostics: the full package
// path is trimmed to its base name.
func ShortClass(class string) string {
	if i := strings.LastIndexByte(class, '/'); i >= 0 {
		return class[i+1:]
	}
	return class
}

type checker struct {
	pass  *ftc.Pass
	graph *callgraph.Graph
	// summaries memoizes per-function LockFacts; onStack guards
	// recursion.
	summaries map[types.Object]*LockFact
	onStack   map[types.Object]bool
	// edges are this package's own lock-order edges, deduped.
	edges      []Edge
	edgeSeen   map[[2]string]bool
	ownEdgePos map[[2]string]token.Pos
}

func run(pass *ftc.Pass) (any, error) {
	c := &checker{
		pass:      pass,
		graph:     pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph),
		summaries: map[types.Object]*LockFact{},
		onStack:   map[types.Object]bool{},
		edgeSeen:  map[[2]string]bool{},
	}

	// Summaries + facts for every package-level function, then the
	// flow-sensitive held-set walk that yields edges and
	// blocking-while-holding reports.
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
			sum := c.summarize(obj, fd)
			if _, exportable := ftc.ObjectKey(obj); exportable && (len(sum.Acquires) > 0 || sum.Blocks != "") {
				pass.ExportObjectFact(obj, &LockFact{Acquires: sum.Acquires, Blocks: sum.Blocks})
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.flow(fd)
			}
		}
	}

	// Accumulate the lock-order graph and hunt for cycles this
	// package's edges close.
	imported := c.importedEdges()
	c.reportCycles(imported)

	all := append(append([]Edge{}, imported...), c.edges...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].From != all[j].From {
			return all[i].From < all[j].From
		}
		if all[i].To != all[j].To {
			return all[i].To < all[j].To
		}
		return all[i].Pos < all[j].Pos
	})
	seen := map[[2]string]bool{}
	dedup := all[:0]
	for _, e := range all {
		k := [2]string{e.From, e.To}
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, e)
		}
	}
	pass.ExportPackageFact(&EdgesFact{Edges: dedup})
	return nil, nil
}

// importedEdges unions the direct imports' accumulated edge facts.
func (c *checker) importedEdges() []Edge {
	var out []Edge
	seen := map[[2]string]bool{}
	for _, imp := range c.pass.Pkg.Imports() {
		var dep EdgesFact
		if !c.pass.ImportPackageFact(imp, &dep) {
			continue
		}
		for _, e := range dep.Edges {
			k := [2]string{e.From, e.To}
			if !seen[k] {
				seen[k] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// --- lock class identification ---

// mutexMethod classifies a call as a lock-class operation: Lock/RLock
// acquire, Unlock/RUnlock release, on sync.Mutex / sync.RWMutex (or
// types embedding them, through method promotion).
func mutexMethod(info *types.Info, call *ast.CallExpr) (class string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := ftc.CalleeObject(info, call).(*types.Func)
	if !ok || !ftc.PkgPathIs(fn.Pkg(), "sync") {
		return "", false, false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false, false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	return lockClass(info, sel.X), acquire, release
}

// lockClass derives the stable class string of the mutex value expr:
//
//	x.mu.Lock()        -> "<pkg of T>.T.mu"   (T = type of x)
//	pkgVar.Lock()      -> "<pkg>.pkgVar"
//	t.Lock()           -> "<pkg of T>.T"      (embedded mutex)
//	localMu.Lock()     -> ""                   (unclassed, skipped)
func lockClass(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		tv, ok := info.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
		}
		// No named owner (package-qualified var, map/slice element of
		// unnamed type): try the selector as a package-level var.
		if obj := info.Uses[e.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		return ""
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			// Embedded mutex: the receiver itself is the lock.
			t := v.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				if _, isStruct := named.Underlying().(*types.Struct); isStruct {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name()
				}
			}
		}
		return ""
	case *ast.IndexExpr:
		return lockClass(info, e.X)
	default:
		return ""
	}
}

// --- function summaries ---

// summarize computes (and memoizes) the LockFact of a function in this
// package.
func (c *checker) summarize(obj types.Object, fd *ast.FuncDecl) *LockFact {
	if sum, ok := c.summaries[obj]; ok {
		return sum
	}
	if c.onStack[obj] {
		return &LockFact{} // recursion: accounted at the cycle's entry
	}
	c.onStack[obj] = true
	defer func() { c.onStack[obj] = false }()

	acquires := map[string]bool{}
	blocks := ""
	note := func(reason string) {
		if blocks == "" {
			blocks = reason
		}
	}
	c.scanOps(fd.Body, func(class string) {
		acquires[class] = true
	}, note, func(callee *LockFact, desc string) {
		for _, a := range callee.Acquires {
			acquires[a] = true
		}
		if callee.Blocks != "" {
			note(fmt.Sprintf("calls %s, which blocks: %s", desc, callee.Blocks))
		}
	})

	sum := &LockFact{Blocks: blocks}
	for a := range acquires {
		sum.Acquires = append(sum.Acquires, a)
	}
	sort.Strings(sum.Acquires)
	c.summaries[obj] = sum
	return sum
}

// calleeSummary resolves a call site to the union of its callees'
// summaries; nil means unknown/irrelevant. desc names the callee for
// messages.
func (c *checker) calleeSummary(call *ast.CallExpr) (*LockFact, string) {
	res := c.graph.ResolveCall(call)
	if res.Static != nil {
		fn := res.Static
		if ffn, ok := fn.(*types.Func); ok && builtinBlocking(ffn) != "" {
			return &LockFact{Blocks: builtinBlocking(ffn)}, callgraph.ShortRef(fn)
		}
		if fn.Pkg() == c.pass.Pkg {
			if fd := ftc.FuncFor(c.pass.Info, c.pass.Files, fn); fd != nil && fd.Body != nil {
				return c.summarize(fn, fd), callgraph.ShortRef(fn)
			}
			return nil, ""
		}
		var fact LockFact
		if c.pass.ImportObjectFact(fn, &fact) {
			return &fact, callgraph.ShortRef(fn)
		}
		return nil, ""
	}
	if res.Iface != nil {
		if reason := builtinBlocking(res.Iface); reason != "" {
			return &LockFact{Blocks: reason}, callgraph.ShortRef(res.Iface)
		}
		// CHA: union over in-repo candidates.
		merged := &LockFact{}
		acq := map[string]bool{}
		desc := callgraph.ShortRef(res.Iface)
		for _, cand := range res.Candidates {
			var fact LockFact
			if !c.pass.ImportFactByKey(cand.PkgPath, cand.ObjKey, &fact) {
				// Same-package candidate: summaries, not yet facts.
				if cand.PkgPath == c.pass.Pkg.Path() {
					if f := c.localByKey(cand.ObjKey); f != nil {
						fact = *f
					} else {
						continue
					}
				} else {
					continue
				}
			}
			for _, a := range fact.Acquires {
				acq[a] = true
			}
			if fact.Blocks != "" && merged.Blocks == "" {
				merged.Blocks = fmt.Sprintf("candidate %s blocks: %s", cand.String(), fact.Blocks)
			}
		}
		for a := range acq {
			merged.Acquires = append(merged.Acquires, a)
		}
		sort.Strings(merged.Acquires)
		if len(merged.Acquires) == 0 && merged.Blocks == "" {
			return nil, ""
		}
		return merged, desc
	}
	return nil, ""
}

// localByKey finds an already-summarized same-package function by its
// object key.
func (c *checker) localByKey(key string) *LockFact {
	for obj, sum := range c.summaries {
		if k, ok := ftc.ObjectKey(obj); ok && k == key {
			return sum
		}
	}
	return nil
}

// builtinBlocking classifies well-known blocking leaf calls that have
// no facts: network I/O and time.Sleep and the blocking sync waits.
// (*sync.Cond).Wait is exempt: it requires holding its lock by design.
func builtinBlocking(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if ftc.PkgPathIs(fn.Pkg(), "time") && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	if ftc.PkgPathIs(fn.Pkg(), "sync") && sig != nil && sig.Recv() != nil {
		if ftc.ReceiverNamed(fn, "sync", "WaitGroup") && fn.Name() == "Wait" {
			return "waits on a sync.WaitGroup"
		}
	}
	if ftc.PkgPathIs(fn.Pkg(), "net") && sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			switch named.Obj().Name() {
			case "Conn", "TCPConn", "UDPConn", "UnixConn", "Listener", "TCPListener", "Dialer":
				// Only the methods that can actually park on the
				// network; Addr/Close/SetDeadline return immediately.
				switch fn.Name() {
				case "Read", "Write", "ReadFrom", "WriteTo", "Accept", "AcceptTCP", "Dial", "DialContext":
					return fmt.Sprintf("network I/O (net.%s.%s)", named.Obj().Name(), fn.Name())
				}
			}
		}
	}
	return ""
}

// scanOps walks a function body (excluding nested FuncLits) and feeds
// every lock acquisition class, direct blocking reason, and resolvable
// callee summary to the callbacks. Channel operations that are the
// comm of a select case are attributed to the select, not double
// counted.
func (c *checker) scanOps(body *ast.BlockStmt, onAcquire func(string), onBlock func(string), onCallee func(*LockFact, string)) {
	commSkip := collectCommOps(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				onBlock("blocks in select")
			}
		case *ast.SendStmt:
			if !commSkip[ast.Node(n)] {
				onBlock("sends on a channel")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !commSkip[ast.Node(n)] {
				onBlock("receives from a channel")
			}
		case *ast.RangeStmt:
			if tv, ok := c.pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					onBlock("ranges over a channel")
				}
			}
		case *ast.CallExpr:
			if class, acquire, _ := mutexMethod(c.pass.Info, n); acquire && class != "" {
				onAcquire(class)
				return true
			}
			if sum, desc := c.calleeSummary(n); sum != nil {
				onCallee(sum, desc)
			}
		}
		return true
	})
}

// collectCommOps returns the channel-op nodes that serve as select
// comm clauses (their blocking is the select's).
func collectCommOps(body ast.Node) map[ast.Node]bool {
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			switch s := comm.Comm.(type) {
			case *ast.SendStmt:
				skip[ast.Node(s)] = true
			case *ast.ExprStmt:
				markRecv(s.X, skip)
			case *ast.AssignStmt:
				for _, r := range s.Rhs {
					markRecv(r, skip)
				}
			}
		}
		return true
	})
	return skip
}

func markRecv(e ast.Expr, skip map[ast.Node]bool) {
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		skip[ast.Node(ue)] = true
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// --- flow-sensitive held-set walk ---

// heldSet maps held lock classes to their acquisition positions.
type heldSet map[string]token.Pos

func copyHeld(h heldSet) heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// flow walks fd and every function literal inside it, each as its own
// execution context (a closure's locks belong to whichever goroutine
// runs it).
func (c *checker) flow(fd *ast.FuncDecl) {
	w := &flowWalker{c: c, commSkip: collectCommOps(fd.Body), reported: map[token.Pos]bool{}}
	w.walkStmts(fd.Body.List, heldSet{})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lw := &flowWalker{c: c, commSkip: collectCommOps(lit.Body), reported: w.reported}
			lw.walkStmts(lit.Body.List, heldSet{})
		}
		return true
	})
}

type flowWalker struct {
	c        *checker
	commSkip map[ast.Node]bool
	reported map[token.Pos]bool
}

func (w *flowWalker) reportBlocked(pos token.Pos, h heldSet, reason string) {
	if len(h) == 0 || w.reported[pos] {
		return
	}
	w.reported[pos] = true
	classes := make([]string, 0, len(h))
	for cls := range h {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	cls := classes[0]
	w.c.pass.Reportf(pos, "%s while holding %s (acquired at %s)",
		reason, ShortClass(cls), w.c.pass.Fset.Position(h[cls]))
}

// edge records a lock-order edge observed in this package.
func (c *checker) edge(from, to string, pos token.Pos) {
	if from == to {
		return // instance-level ordering within a class is out of scope
	}
	k := [2]string{from, to}
	if c.edgeSeen[k] {
		return
	}
	c.edgeSeen[k] = true
	c.edges = append(c.edges, Edge{
		From: from, To: to,
		Pos: c.pass.Fset.Position(pos).String(),
		Pkg: c.pass.Pkg.Path(),
	})
	if c.ownEdgePos == nil {
		c.ownEdgePos = map[[2]string]token.Pos{}
	}
	c.ownEdgePos[k] = pos
}

// processNode scans the expressions of one leaf statement: mutex ops
// mutate the held set; calls and channel ops are checked against it.
func (w *flowWalker) processNode(n ast.Node, h heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if class, acquire, release := mutexMethod(w.c.pass.Info, x); class != "" && (acquire || release) {
				if acquire {
					for held := range h {
						w.c.edge(held, class, x.Pos())
					}
					h[class] = x.Pos()
				} else {
					delete(h, class)
				}
				return true
			}
			if sum, desc := w.c.calleeSummary(x); sum != nil {
				for held := range h {
					for _, a := range sum.Acquires {
						w.c.edge(held, a, x.Pos())
					}
				}
				if sum.Blocks != "" {
					w.reportBlocked(x.Pos(), h, fmt.Sprintf("calls %s, which blocks (%s)", desc, sum.Blocks))
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !w.commSkip[ast.Node(x)] {
				w.reportBlocked(x.Pos(), h, "receives from a channel")
			}
		}
		return true
	})
}

// walkStmts walks a statement list; returns the held set at
// fall-through and whether every path terminated (return/branch).
func (w *flowWalker) walkStmts(list []ast.Stmt, h heldSet) (heldSet, bool) {
	for _, s := range list {
		var terminated bool
		h, terminated = w.walkStmt(s, h)
		if terminated {
			return h, true
		}
	}
	return h, false
}

// merge unions branch exits: a lock possibly held counts as held.
func merge(a, b heldSet) heldSet {
	out := copyHeld(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func (w *flowWalker) walkStmt(s ast.Stmt, h heldSet) (heldSet, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, h)

	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.ReturnStmt:
		w.processNode(s, h)
		_, isReturn := s.(*ast.ReturnStmt)
		return h, isReturn

	case *ast.SendStmt:
		w.processNode(s.Chan, h)
		w.processNode(s.Value, h)
		if !w.commSkip[ast.Node(s)] {
			w.reportBlocked(s.Pos(), h, "sends on a channel")
		}
		return h, false

	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the remainder of
		// the function (by design); deferred work itself runs outside
		// this flow. Arguments are evaluated now.
		for _, arg := range s.Call.Args {
			w.processNode(arg, h)
		}
		return h, false

	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.processNode(arg, h)
		}
		return h, false

	case *ast.BranchStmt:
		return h, true

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, h)

	case *ast.IfStmt:
		if s.Init != nil {
			h, _ = w.walkStmt(s.Init, h)
		}
		w.processNode(s.Cond, h)
		thenH, thenTerm := w.walkStmts(s.Body.List, copyHeld(h))
		elseH, elseTerm := copyHeld(h), false
		if s.Else != nil {
			elseH, elseTerm = w.walkStmt(s.Else, copyHeld(h))
		}
		switch {
		case thenTerm && elseTerm:
			return h, true
		case thenTerm:
			return elseH, false
		case elseTerm:
			return thenH, false
		default:
			return merge(thenH, elseH), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			h, _ = w.walkStmt(s.Init, h)
		}
		w.processNode(s.Cond, h)
		bodyH, _ := w.walkStmts(s.Body.List, copyHeld(h))
		if s.Post != nil {
			bodyH, _ = w.walkStmt(s.Post, bodyH)
		}
		return merge(h, bodyH), false

	case *ast.RangeStmt:
		w.processNode(s.X, h)
		if tv, ok := w.c.pass.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.reportBlocked(s.Pos(), h, "ranges over a channel")
			}
		}
		bodyH, _ := w.walkStmts(s.Body.List, copyHeld(h))
		return merge(h, bodyH), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			h, _ = w.walkStmt(s.Init, h)
		}
		w.processNode(s.Tag, h)
		return w.walkCases(s.Body, h)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			h, _ = w.walkStmt(s.Init, h)
		}
		w.processNode(s.Assign, h)
		return w.walkCases(s.Body, h)

	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.reportBlocked(s.Pos(), h, "blocks in select")
		}
		out := heldSet{}
		any := false
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			ch := copyHeld(h)
			if comm.Comm != nil {
				ch, _ = w.walkStmt(comm.Comm, ch)
			}
			ch, term := w.walkStmts(comm.Body, ch)
			if !term {
				out = merge(out, ch)
				any = true
			}
		}
		if !any {
			return h, len(s.Body.List) > 0
		}
		return out, false

	default:
		return h, false
	}
}

// walkCases handles switch bodies: each clause runs from the entry
// held set; the result is the union of falling-through clause exits
// (plus the entry set, since no clause may match).
func (w *flowWalker) walkCases(body *ast.BlockStmt, h heldSet) (heldSet, bool) {
	out := copyHeld(h)
	for _, cl := range body.List {
		clause, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range clause.List {
			w.processNode(e, h)
		}
		ch, term := w.walkStmts(clause.Body, copyHeld(h))
		if !term {
			out = merge(out, ch)
		}
	}
	return out, false
}

// --- cycle detection ---

// reportCycles searches the accumulated lock-order graph (imported
// edges plus this package's own) for cycles that one of this package's
// edges closes, and reports each once.
func (c *checker) reportCycles(imported []Edge) {
	adj := map[string][]Edge{}
	for _, e := range imported {
		adj[e.From] = append(adj[e.From], e)
	}
	for _, e := range c.edges {
		adj[e.From] = append(adj[e.From], e)
	}
	reportedCycle := map[string]bool{}
	for _, own := range c.edges {
		// A cycle through own: path own.To ->* own.From.
		path := findPath(adj, own.To, own.From)
		if path == nil {
			continue
		}
		nodes := []string{own.From, own.To}
		nodes = append(nodes, pathNodes(path)...)
		key := cycleKey(nodes)
		if reportedCycle[key] {
			continue
		}
		reportedCycle[key] = true
		var desc strings.Builder
		desc.WriteString(ShortClass(own.From) + " → " + ShortClass(own.To))
		for _, e := range path {
			desc.WriteString(" → " + ShortClass(e.To))
		}
		var via strings.Builder
		for i, e := range path {
			if i > 0 {
				via.WriteString(", ")
			}
			fmt.Fprintf(&via, "%s→%s at %s (%s)", ShortClass(e.From), ShortClass(e.To), e.Pos, ShortClass(e.Pkg))
		}
		pos := c.ownEdgePos[[2]string{own.From, own.To}]
		c.pass.Reportf(pos, "lock-order deadlock risk: cycle %s; reverse path: %s", desc.String(), via.String())
	}
}

// findPath BFSes from start to goal, returning the edge path or nil.
func findPath(adj map[string][]Edge, start, goal string) []Edge {
	if start == goal {
		return []Edge{}
	}
	type hop struct {
		node string
		via  *Edge
		prev *hop
	}
	queue := []*hop{{node: start}}
	seen := map[string]bool{start: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := range adj[cur.node] {
			e := &adj[cur.node][i]
			if seen[e.To] {
				continue
			}
			next := &hop{node: e.To, via: e, prev: cur}
			if e.To == goal {
				var path []Edge
				for n := next; n.via != nil; n = n.prev {
					path = append([]Edge{*n.via}, path...)
				}
				return path
			}
			seen[e.To] = true
			queue = append(queue, next)
		}
	}
	return nil
}

func pathNodes(path []Edge) []string {
	var out []string
	for _, e := range path {
		out = append(out, e.To)
	}
	return out
}

// cycleKey canonicalizes a cycle's node set.
func cycleKey(nodes []string) string {
	set := map[string]bool{}
	for _, n := range nodes {
		set[n] = true
	}
	uniq := make([]string, 0, len(set))
	for n := range set {
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	return strings.Join(uniq, "|")
}
