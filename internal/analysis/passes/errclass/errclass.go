// Package errclass guards the retry-vs-detector error taxonomy of the
// HVAC read path (internal/hvac/client.go, PR 4): a failed read is
// classified into the errClass enum, and the entire fault-tolerance
// argument rests on two properties of how that enum is consumed:
//
//  1. Every switch over errClass is exhaustive — each declared class
//     constant appears in some case clause. A `default:` does not
//     count: a new class added to the enum must force each consumer
//     site to decide deliberately whether it is retryable or
//     detector evidence, not silently inherit whichever bucket the
//     default happened to encode.
//  2. classTimeout never flows into a retry decision. A timeout-class
//     failure already consumed a full TTL — it is the failure
//     detector's evidence, and retrying it would both starve the
//     detector and double the latency bill. Concretely: a case clause
//     covering classTimeout must not call any rpc.RetryPolicy method
//     and must not `continue` an enclosing loop (the retry idiom of
//     the node-read stage, readNode).
//
// The pass applies to packages named "hvac" and keys the enum by its
// type name, errClass.
package errclass

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis/ftc"
)

// Analyzer is the errclass pass.
var Analyzer = &ftc.Analyzer{
	Name: "errclass",
	Doc:  "switches over the hvac errClass enum must be exhaustive, and classTimeout must never reach a retry decision",
	Run:  run,
}

const enumTypeName = "errClass"
const timeoutConstName = "classTimeout"

func run(pass *ftc.Pass) (any, error) {
	if !ftc.PkgNamed(pass.Pkg, "hvac") {
		return nil, nil
	}
	enum := findEnum(pass)
	if enum == nil {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.Info.Types[sw.Tag]
			if !ok || !isEnumType(tv.Type, enum.typ) {
				return true
			}
			checkExhaustive(pass, sw, enum)
			checkTimeoutClauses(pass, sw, enum)
			return true
		})
	}
	return nil, nil
}

// enumInfo is the declared constant set of the errClass type.
type enumInfo struct {
	typ     *types.Named
	consts  []*types.Const
	timeout *types.Const
}

// findEnum locates the errClass named type and its package-level
// constants.
func findEnum(pass *ftc.Pass) *enumInfo {
	scope := pass.Pkg.Scope()
	tn, ok := scope.Lookup(enumTypeName).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	e := &enumInfo{typ: named}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !isEnumType(c.Type(), named) {
			continue
		}
		e.consts = append(e.consts, c)
		if c.Name() == timeoutConstName {
			e.timeout = c
		}
	}
	if len(e.consts) < 2 {
		return nil
	}
	return e
}

func isEnumType(t types.Type, enum *types.Named) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() == enum.Obj()
}

// checkExhaustive verifies every enum constant appears in a case list.
func checkExhaustive(pass *ftc.Pass, sw *ast.SwitchStmt, enum *enumInfo) {
	covered := map[string]bool{} // by exact constant value
	for _, stmt := range sw.Body.List {
		clause := stmt.(*ast.CaseClause)
		for _, e := range clause.List {
			if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}
	var missing []string
	for _, c := range enum.consts {
		if !covered[c.Val().ExactString()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Switch,
			"switch over %s is not exhaustive: missing %v (a default clause does not count — each class must be handled deliberately)",
			enumTypeName, missing)
	}
}

// checkTimeoutClauses enforces rule 2 inside every clause covering
// classTimeout.
func checkTimeoutClauses(pass *ftc.Pass, sw *ast.SwitchStmt, enum *enumInfo) {
	if enum.timeout == nil {
		return
	}
	for _, stmt := range sw.Body.List {
		clause := stmt.(*ast.CaseClause)
		if !clauseCovers(pass, clause, enum.timeout) {
			continue
		}
		for _, s := range clause.Body {
			ast.Inspect(s, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BranchStmt:
					if n.Tok == token.CONTINUE {
						pass.Reportf(n.Pos(), "continue in a %s clause retries a timeout-class failure; timeouts are detector evidence and must never be retried", timeoutConstName)
					}
				case *ast.CallExpr:
					if fn, ok := ftc.CalleeObject(pass.Info, n).(*types.Func); ok {
						if ftc.ReceiverNamed(fn, "rpc", "RetryPolicy") {
							pass.Reportf(n.Pos(), "rpc.RetryPolicy.%s called in a %s clause; timeout-class failures must never reach the retry policy", fn.Name(), timeoutConstName)
						}
					}
				case *ast.FuncLit:
					return false // a deferred/spawned closure is not this clause's control flow
				}
				return true
			})
		}
	}
}

// clauseCovers reports whether clause lists the given constant (or is
// a default clause, which covers everything not otherwise listed —
// exhaustiveness already flags those, but the timeout rule still
// applies when classTimeout can reach it).
func clauseCovers(pass *ftc.Pass, clause *ast.CaseClause, c *types.Const) bool {
	for _, e := range clause.List {
		if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
			if constant.Compare(tv.Value, token.EQL, c.Val()) {
				return true
			}
		}
	}
	return false
}
