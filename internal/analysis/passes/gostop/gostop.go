// Package gostop checks goroutine stoppability (DESIGN.md §12): every
// `go` statement in library code must start work that has a reachable
// stop path, or the component that spawned it can never shut down
// cleanly — the exact failure mode PR 9's policy controller and PR 8's
// RAM-tier janitor were built to avoid.
//
// A function is *unstoppable* when its body contains a forever loop
// (`for {}` or `for true {}`) with no exit: no return, no break, no
// goto anywhere inside the loop. Loops that range over a channel are
// stoppable by construction — closing the channel ends them — and a
// select case that returns or breaks is an exit like any other.
// Unstoppability propagates interprocedurally: a function that calls
// an unstoppable function is itself unstoppable (once entered, it may
// never come back), and the verdict crosses package boundaries as a
// GoStopFact.
//
// At each `go` statement the spawned body is resolved — a function
// literal directly, a static callee through the call graph and its
// facts — and an unstoppable spawn is reported at the `go`.
//
// Exemptions: _test.go files and package main (a daemon's top-level
// accept/serve loop legitimately runs for the life of the process).
// Function literals nested inside a body are separate goroutine
// payloads and do not make their *definer* unstoppable.
package gostop

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/callgraph"
)

// A GoStopFact marks a function that, once entered, may never return.
type GoStopFact struct {
	Why string // which loop or callee makes it unstoppable
}

// AFact marks GoStopFact as a fact.
func (*GoStopFact) AFact() {}

// Analyzer is the gostop pass.
var Analyzer = &ftc.Analyzer{
	Name:      "gostop",
	Doc:       "every goroutine started in library code must have a reachable stop path (propagated across packages via facts)",
	Requires:  []*ftc.Analyzer{callgraph.Analyzer},
	FactTypes: []ftc.Fact{(*GoStopFact)(nil)},
	Run:       run,
}

type checker struct {
	pass      *ftc.Pass
	graph     *callgraph.Graph
	summaries map[types.Object]string // "" = stoppable
	onStack   map[types.Object]bool
}

func run(pass *ftc.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		graph:     pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph),
		summaries: map[types.Object]string{},
		onStack:   map[types.Object]bool{},
	}

	// Summarize and export facts for every declared function first, so
	// CHA candidates within this package resolve, then audit go
	// statements.
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
			why := c.summarize(obj, fd.Body)
			if _, exportable := ftc.ObjectKey(obj); exportable && why != "" {
				pass.ExportObjectFact(obj, &GoStopFact{Why: why})
			}
		}
	}

	for _, f := range pass.Files {
		if fname := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if why := c.spawnUnstoppable(gs.Call); why != "" {
				pass.Reportf(gs.Pos(), "goroutine started here has no stop path: %s", why)
			}
			return true
		})
	}
	return nil, nil
}

// spawnUnstoppable resolves the goroutine payload of a `go` statement.
func (c *checker) spawnUnstoppable(call *ast.CallExpr) string {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return c.bodyVerdict(lit.Body)
	}
	res := c.graph.ResolveCall(call)
	if res.Static != nil {
		return c.calleeWhy(res.Static)
	}
	// Interface-dispatched spawn: report only when every in-repo
	// candidate is unstoppable — any stoppable implementation makes
	// the spawn potentially fine.
	if res.Iface != nil && len(res.Candidates) > 0 {
		for _, cand := range res.Candidates {
			var fact GoStopFact
			if !c.pass.ImportFactByKey(cand.PkgPath, cand.ObjKey, &fact) {
				return ""
			}
		}
		return fmt.Sprintf("every implementation of %s loops forever without an exit", callgraph.ShortRef(res.Iface))
	}
	return ""
}

// calleeWhy returns the unstoppability reason for a resolved callee:
// local summary for same-package functions, imported fact otherwise.
func (c *checker) calleeWhy(fn types.Object) string {
	if fn.Pkg() == c.pass.Pkg {
		if why, ok := c.summaries[fn]; ok {
			return why
		}
		if fd := ftc.FuncFor(c.pass.Info, c.pass.Files, fn); fd != nil && fd.Body != nil {
			return c.summarize(fn, fd.Body)
		}
		return ""
	}
	var fact GoStopFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Why
	}
	return ""
}

// summarize memoizes a function's unstoppability verdict.
func (c *checker) summarize(obj types.Object, body *ast.BlockStmt) string {
	if why, ok := c.summaries[obj]; ok {
		return why
	}
	if c.onStack[obj] {
		return "" // recursion: verdict settles at the cycle's entry
	}
	c.onStack[obj] = true
	defer func() { c.onStack[obj] = false }()
	why := c.bodyVerdict(body)
	c.summaries[obj] = why
	return why
}

// bodyVerdict inspects one function body (excluding nested FuncLits):
// a forever loop with no exit, or a call to an unstoppable function.
func (c *checker) bodyVerdict(body *ast.BlockStmt) string {
	verdict := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if verdict != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if isForever(c.pass.Info, n) && !hasExit(n.Body) {
				verdict = fmt.Sprintf("for-loop at %s never breaks or returns", c.pass.Fset.Position(n.Pos()))
				return false
			}
		case *ast.CallExpr:
			res := c.graph.ResolveCall(n)
			if res.Static != nil {
				if why := c.calleeWhy(res.Static); why != "" {
					verdict = fmt.Sprintf("calls %s, which has no stop path (%s)", callgraph.ShortRef(res.Static), why)
					return false
				}
			}
		}
		return true
	})
	return verdict
}

// isForever reports whether the for statement can only be left through
// an explicit exit: no condition, or a constant-true condition.
func isForever(info *types.Info, s *ast.ForStmt) bool {
	if s.Cond == nil {
		return true
	}
	tv, ok := info.Types[s.Cond]
	return ok && tv.Value != nil && tv.Value.String() == "true"
}

// hasExit reports whether a forever-loop body contains any way out:
// return, break, goto, or a panic call. Any break counts, even of an
// inner switch — the approximation errs toward not reporting.
func hasExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok.String() == "break" || n.Tok.String() == "goto" {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}
