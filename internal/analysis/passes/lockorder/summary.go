package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

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
	// Hot is the first operation the function (transitively) performs
	// that a //ftc:hotpath function must not reach. It is zero when
	// there is none, and for a marked function, which hotpathlock
	// verifies at its own definition.
	Hot HotOp
}

// AFact marks LockFact as a fact.
func (*LockFact) AFact() {}

// A HotOp is a hot-path-forbidden operation as callers see it.
type HotOp struct {
	What  string // e.g. "acquires (*sync.Mutex).Lock"
	Where string // its position, "file:line:col"
}

// A Breach is one hot-path-forbidden operation in a function body.
type Breach struct {
	Pos  token.Pos
	What string
}

// Summary is the per-function summary that lockorder, hotpathlock and
// ctxflow share. Like callgraph it reports nothing: it exports a
// LockFact for every package-level function that acquires a lock,
// can block, or reaches a hot-path-forbidden operation, and its result
// is the package's *Summaries.
var Summary = &ftc.Analyzer{
	Name:      "locksummary",
	Doc:       "summarizes each function's lock classes, blocking operations and first hot-path-forbidden operation (LockFact)",
	Requires:  []*ftc.Analyzer{callgraph.Analyzer},
	FactTypes: []ftc.Fact{(*LockFact)(nil)},
	Run:       summarizePackage,
}

// Summaries is the Summary pass's result.
type Summaries struct {
	pass  *ftc.Pass
	graph *callgraph.Graph
	// funcs memoizes per-function LockFacts; onStack guards recursion.
	funcs   map[types.Object]*LockFact
	onStack map[types.Object]bool
	// marked holds every breach in each //ftc:hotpath body, in source
	// order: the findings hotpathlock reports there.
	marked map[*ast.FuncDecl][]Breach
}

func summarizePackage(pass *ftc.Pass) (any, error) {
	s := &Summaries{
		pass:    pass,
		graph:   pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph),
		funcs:   map[types.Object]*LockFact{},
		onStack: map[types.Object]bool{},
		marked:  map[*ast.FuncDecl][]Breach{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				s.summarize(obj, fd)
			}
		}
	}
	return s, nil
}

// Breaches returns every hot-path-forbidden operation in the body of
// fd, a //ftc:hotpath function of the analyzed package.
func (s *Summaries) Breaches(fd *ast.FuncDecl) []Breach {
	return s.marked[fd]
}

// summarize computes, memoizes and (unless it is empty) exports the
// LockFact of a function in this package. One walk gathers both
// halves: lock classes and blocking outside function literals (a
// closure's locks belong to whichever goroutine runs it), and hot-path
// breaches everywhere in the body.
func (s *Summaries) summarize(obj types.Object, fd *ast.FuncDecl) *LockFact {
	if sum, ok := s.funcs[obj]; ok {
		return sum
	}
	if s.onStack[obj] {
		return &LockFact{} // recursion: accounted at the cycle's entry
	}
	s.onStack[obj] = true
	defer func() { s.onStack[obj] = false }()

	sum := &LockFact{}
	acquires := map[string]bool{}
	block := func(reason string) {
		if sum.Blocks == "" {
			sum.Blocks = reason
		}
	}
	var hot []Breach
	commSkip := collectCommOps(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		hot = s.hotOps(n, fd.Body, hot)
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				hot = s.hotOps(m, fd.Body, hot)
				return true
			})
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				block("blocks in select")
			}
		case *ast.SendStmt:
			if !commSkip[ast.Node(n)] {
				block("sends on a channel")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !commSkip[ast.Node(n)] {
				block("receives from a channel")
			}
		case *ast.RangeStmt:
			if tv, ok := s.pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					block("ranges over a channel")
				}
			}
		case *ast.CallExpr:
			if class, acquire, _ := mutexMethod(s.pass.Info, n); acquire && class != "" {
				acquires[class] = true
				return true
			}
			if callee, desc := s.calleeSummary(n); callee != nil {
				for _, a := range callee.Acquires {
					acquires[a] = true
				}
				if callee.Blocks != "" {
					block(fmt.Sprintf("calls %s, which blocks: %s", desc, callee.Blocks))
				}
			}
		}
		return true
	})

	for a := range acquires {
		sum.Acquires = append(sum.Acquires, a)
	}
	sort.Strings(sum.Acquires)
	if ftc.HasHotPath(fd) {
		s.marked[fd] = hot
	} else if len(hot) > 0 {
		sum.Hot = HotOp{What: hot[0].What, Where: s.pass.Fset.Position(hot[0].Pos).String()}
	}
	s.funcs[obj] = sum
	if _, exportable := ftc.ObjectKey(obj); exportable && (len(sum.Acquires) > 0 || sum.Blocks != "" || sum.Hot.What != "") {
		s.pass.ExportObjectFact(obj, sum)
	}
	return sum
}

// lookup returns the summary of a statically called function: this
// package's own, or the fact its home package exported; nil if
// neither exists.
func (s *Summaries) lookup(fn types.Object) *LockFact {
	if fn.Pkg() == s.pass.Pkg {
		if fd := ftc.FuncFor(s.pass.Info, s.pass.Files, fn); fd != nil && fd.Body != nil {
			return s.summarize(fn, fd)
		}
		return nil
	}
	var fact LockFact
	if s.pass.ImportObjectFact(fn, &fact) {
		return &fact
	}
	return nil
}

// calleeSummary resolves a call site to the union of its callees'
// summaries; nil means unknown/irrelevant. desc names the callee for
// messages. At an interface call the union's Hot is set only when
// every in-repo candidate has one (one safe implementation means the
// dispatch may be fine, and guessing would be noise).
func (s *Summaries) calleeSummary(call *ast.CallExpr) (*LockFact, string) {
	res := s.graph.ResolveCall(call)
	if res.Static != nil {
		if fn, ok := res.Static.(*types.Func); ok && builtinBlocking(fn) != "" {
			return &LockFact{Blocks: builtinBlocking(fn)}, callgraph.ShortRef(fn)
		}
		if sum := s.lookup(res.Static); sum != nil {
			return sum, callgraph.ShortRef(res.Static)
		}
		return nil, ""
	}
	if res.Iface == nil {
		return nil, ""
	}
	// A well-known blocking interface method blocks whatever the
	// candidates do; otherwise CHA unions the candidates.
	builtin := builtinBlocking(res.Iface)
	merged := &LockFact{Blocks: builtin}
	acq := map[string]bool{}
	allHot := len(res.Candidates) > 0
	for _, cand := range res.Candidates {
		// An unknown candidate has the zero summary. One of this
		// package counts once summarized, when its fact is exported.
		var fact LockFact
		s.pass.ImportFactByKey(cand.PkgPath, cand.ObjKey, &fact)
		if fact.Hot.What == "" {
			allHot = false
		} else if merged.Hot.What == "" {
			merged.Hot = fact.Hot
		}
		if builtin != "" {
			continue
		}
		for _, a := range fact.Acquires {
			acq[a] = true
		}
		if fact.Blocks != "" && merged.Blocks == "" {
			merged.Blocks = fmt.Sprintf("candidate %s blocks: %s", cand.String(), fact.Blocks)
		}
	}
	if !allHot {
		merged.Hot = HotOp{}
	}
	for a := range acq {
		merged.Acquires = append(merged.Acquires, a)
	}
	sort.Strings(merged.Acquires)
	if len(merged.Acquires) == 0 && merged.Blocks == "" && merged.Hot.What == "" {
		return nil, ""
	}
	return merged, callgraph.ShortRef(res.Iface)
}

// builtinBlocking classifies well-known blocking leaf calls that have
// no facts: network I/O and time.Sleep and the blocking sync waits.
// (*sync.Cond).Wait is exempt: it requires holding its lock by design.
func builtinBlocking(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if ftc.PkgPathIs(fn.Pkg(), "time") && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	if ftc.ReceiverNamed(fn, "sync", "WaitGroup") && fn.Name() == "Wait" {
		return "waits on a sync.WaitGroup"
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

// --- the hot-path rule ---

// blockingSyncMethods are the sync primitives that can block or spin
// on another goroutine. Any instance counts, classed or not.
var blockingSyncMethods = map[string]map[string]bool{
	"Mutex":     {"Lock": true},
	"RWMutex":   {"Lock": true, "RLock": true},
	"Once":      {"Do": true},
	"WaitGroup": {"Wait": true},
	"Cond":      {"Wait": true},
}

// hotOps appends the hot-path breaches of one node of body (the
// enclosing function's body, which decides what is local) to out.
func (s *Summaries) hotOps(n ast.Node, body *ast.BlockStmt, out []Breach) []Breach {
	switch n := n.(type) {
	case *ast.CallExpr:
		if what := s.hotCall(n, body); what != "" {
			out = append(out, Breach{n.Pos(), what})
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if s.writesSharedMap(lhs, body) {
				out = append(out, Breach{lhs.Pos(), "writes a non-local map"})
			}
		}
	case *ast.IncDecStmt:
		if s.writesSharedMap(n.X, body) {
			out = append(out, Breach{n.X.Pos(), "writes a non-local map"})
		}
	}
	return out
}

// hotCall classifies one call: "" when a hot path may make it.
func (s *Summaries) hotCall(call *ast.CallExpr, body *ast.BlockStmt) string {
	info := s.pass.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && len(call.Args) > 0 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && s.writesSharedMap(&ast.IndexExpr{X: call.Args[0]}, body) {
			return "deletes from a non-local map"
		}
	}

	res := s.graph.ResolveCall(call)
	if res.Iface != nil && len(res.Candidates) > 0 {
		if sum, desc := s.calleeSummary(call); sum != nil && sum.Hot.What != "" {
			return fmt.Sprintf("dispatches %s: every in-repo implementation %s (e.g. at %s)", desc, sum.Hot.What, sum.Hot.Where)
		}
		return ""
	}
	fn, ok := res.Static.(*types.Func)
	if !ok {
		if fn, ok = ftc.CalleeObject(info, call).(*types.Func); !ok {
			return ""
		}
	}

	// Denylisted leaf operations.
	if ftc.PkgPathIs(fn.Pkg(), "fmt") {
		return fmt.Sprintf("calls fmt.%s (allocates via fmt)", fn.Name())
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && ftc.PkgPathIs(fn.Pkg(), "sync") {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && blockingSyncMethods[named.Obj().Name()][fn.Name()] {
			return fmt.Sprintf("acquires (*sync.%s).%s", named.Obj().Name(), fn.Name())
		}
	}

	sum := s.lookup(fn)
	if sum == nil || sum.Hot.What == "" {
		return ""
	}
	name := callgraph.ShortRef(fn)
	if fn.Pkg() == s.pass.Pkg {
		name = fn.Name()
	}
	return fmt.Sprintf("calls %s, which %s (at %s)", name, sum.Hot.What, sum.Hot.Where)
}

// writesSharedMap reports whether an assignment target indexes a map
// whose root variable is not local to body. A map built in the
// function is single-goroutine by construction (e.g. a plan's Moves
// map).
func (s *Summaries) writesSharedMap(lhs ast.Expr, body *ast.BlockStmt) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := s.pass.Info.TypeOf(ast.Unparen(idx.X))
	if t == nil {
		return false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	root := ftc.RootIdent(idx.X)
	if root == nil {
		return true
	}
	obj := s.pass.Info.Uses[root]
	if obj == nil {
		obj = s.pass.Info.Defs[root]
	}
	return !ftc.DeclaredWithin(obj, body.Pos(), body.End())
}

// --- select and channel helpers ---

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
