// Package ctxflow enforces context threading in library code
// (DESIGN.md §12): a deadline or cancellation decided by the caller
// must survive the trip through every layer of the cache, so library
// functions may not fabricate fresh root contexts or silently discard
// the one they were handed.
//
// Three rules, in decreasing order of certainty:
//
//   - replaced context: context.Background() / context.TODO() called
//     inside a function (or a closure within one) that has an incoming
//     context.Context parameter. The caller's deadline is discarded on
//     the spot; pass ctx instead.
//
//   - unbounded blocking root: context.Background()/TODO() passed
//     directly to a callee whose lockorder summary (LockFact, imported
//     cross-package via facts) says it blocks — channel ops, Waits,
//     network I/O. The blocking work is now unattached to any caller
//     lifetime. This is the interprocedural tier: the callee's
//     blocking-ness travels along the import graph as a fact.
//
//   - root context in library code: any other Background()/TODO() in
//     non-main, non-test code. Weakest tier; sometimes legitimate
//     (detached maintenance loops), which is what //ftclint:ignore
//     with a reason is for.
//
// A fourth check catches the discarded parameter: a function that
// takes ctx but only ever mentions it in blank assignments (`_ = ctx`)
// or not at all, while calling at least one context-accepting callee —
// the author had somewhere to thread it and didn't.
//
// Exemptions: package main, _test.go files, and func init — process
// roots own their contexts.
package ctxflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/ftc"
	"repro/internal/analysis/passes/callgraph"
	"repro/internal/analysis/passes/lockorder"
)

// Analyzer is the ctxflow pass.
var Analyzer = &ftc.Analyzer{
	Name:     "ctxflow",
	Doc:      "library code must thread the incoming context.Context; flag fabricated root contexts and discarded ctx parameters",
	Requires: []*ftc.Analyzer{callgraph.Analyzer, lockorder.Summary},
	Run:      run,
}

func run(pass *ftc.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	graph := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)
	c := &checker{pass: pass, graph: graph}
	for _, f := range pass.Files {
		if fname := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(fname, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" {
				continue
			}
			c.checkFunc(fd)
		}
		// Package-level var initializers run at process start; a root
		// context there is a detached-lifetime singleton, tier three.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			ast.Inspect(gd, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name := rootCtxCall(pass.Info, call); name != "" {
						pass.Reportf(call.Pos(), "context.%s() in library code: accept a context from the caller instead of fabricating a root", name)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

type checker struct {
	pass  *ftc.Pass
	graph *callgraph.Graph
}

// rootCtxCall returns "Background" or "TODO" when call fabricates a
// root context, else "".
func rootCtxCall(info *types.Info, call *ast.CallExpr) string {
	fn, ok := ftc.CalleeObject(info, call).(*types.Func)
	if !ok || !ftc.PkgPathIs(fn.Pkg(), "context") {
		return ""
	}
	switch fn.Name() {
	case "Background", "TODO":
		return fn.Name()
	}
	return ""
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && ftc.PkgPathIs(obj.Pkg(), "context")
}

// ctxParams returns the function's context.Context parameter objects.
func ctxParams(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj, ok := info.Defs[name].(*types.Var); ok && isCtxType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// calleeAcceptsCtx reports whether the call's callee has a
// context.Context parameter.
func calleeAcceptsCtx(info *types.Info, call *ast.CallExpr) bool {
	obj := ftc.CalleeObject(info, call)
	if obj == nil {
		// Function-typed values still have a signature.
		if tv, ok := info.Types[call.Fun]; ok {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				return sigAcceptsCtx(sig)
			}
		}
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	return ok && sigAcceptsCtx(sig)
}

func sigAcceptsCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeBlocks imports the lockorder summary of the call's resolved
// callee(s); a non-empty string is the blocking reason.
func (c *checker) calleeBlocks(call *ast.CallExpr) string {
	res := c.graph.ResolveCall(call)
	if res.Static != nil {
		var fact lockorder.LockFact
		if c.pass.ImportObjectFact(res.Static, &fact) {
			return fact.Blocks
		}
		return ""
	}
	for _, cand := range res.Candidates {
		var fact lockorder.LockFact
		if c.pass.ImportFactByKey(cand.PkgPath, cand.ObjKey, &fact) && fact.Blocks != "" {
			return fmt.Sprintf("candidate %s: %s", cand.String(), fact.Blocks)
		}
	}
	return ""
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	info := c.pass.Info
	params := ctxParams(info, fd)
	hasCtx := len(params) > 0

	// Track real uses of each ctx param: a mention on the RHS of an
	// all-blank assignment (`_ = ctx`) is a discard, not a use.
	realUse := map[*types.Var]bool{}
	discardOnly := map[*types.Var]ast.Node{}
	callsCtxAware := false

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if allBlank(n.Lhs) {
				for _, rhs := range n.Rhs {
					if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && isParamOf(v, params) {
							discardOnly[v] = n
							return false // don't count this mention as a use
						}
					}
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && isParamOf(v, params) {
				realUse[v] = true
			}
		case *ast.CallExpr:
			if calleeAcceptsCtx(info, n) {
				callsCtxAware = true
			}
			if name := rootCtxCall(info, n); name != "" {
				c.reportRootCtx(n, name, hasCtx)
			}
		}
		return true
	})

	if !callsCtxAware {
		return
	}
	for _, p := range params {
		if realUse[p] || p.Name() == "_" {
			continue
		}
		if at, discarded := discardOnly[p]; discarded {
			c.pass.Reportf(at.Pos(), "incoming context %q is discarded (`_ = %s`) but this function calls context-accepting callees; thread it through", p.Name(), p.Name())
		} else {
			c.pass.Reportf(p.Pos(), "incoming context %q is never used but this function calls context-accepting callees; thread it through", p.Name())
		}
	}
}

// reportRootCtx emits the tiered Background()/TODO() diagnostic.
func (c *checker) reportRootCtx(call *ast.CallExpr, name string, hasCtx bool) {
	if hasCtx {
		c.pass.Reportf(call.Pos(), "context.%s() discards the incoming ctx; pass ctx instead", name)
		return
	}
	// Does the fresh root feed a blocking callee? Look for the call
	// expression whose argument list contains this Background() call —
	// resolved through the call graph and lockorder facts.
	if parent, reason := c.blockingConsumer(call); parent != nil {
		c.pass.Reportf(call.Pos(), "context.%s() roots an unbounded blocking call (%s); plumb a caller context so it can be cancelled", name, reason)
		return
	}
	c.pass.Reportf(call.Pos(), "context.%s() in library code: accept a context from the caller instead of fabricating a root", name)
}

// blockingConsumer finds the enclosing call that takes the root
// context as a direct argument and (per imported facts) blocks.
func (c *checker) blockingConsumer(root *ast.CallExpr) (*ast.CallExpr, string) {
	for _, f := range c.pass.Files {
		var found *ast.CallExpr
		var reason string
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found != nil {
				return found == nil
			}
			for _, arg := range call.Args {
				if ast.Unparen(arg) == root {
					if r := c.calleeBlocks(call); r != "" {
						found, reason = call, r
					}
					return false
				}
			}
			return true
		})
		if found != nil {
			return found, reason
		}
	}
	return nil, ""
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

func isParamOf(v *types.Var, params []*types.Var) bool {
	for _, p := range params {
		if p == v {
			return true
		}
	}
	return false
}
