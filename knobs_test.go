package repro_test

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// unsetKnobs lists the exported *Config fields that no non-test code
// sets, keyed "pkg.Type.Field" (or "pkg.Type" for every field of the
// type), each with the reason it stays a knob: the DESIGN claim its
// tests check, or the ROADMAP item that will decide it.
var unsetKnobs = map[string]string{
	"main.vetConfig":                                    "go vet writes it as JSON; ftclint only decodes it",
	"core.ClusterConfig.AdmissionLimit":                 "ROADMAP item 7: the admission-control ablation decides its value",
	"core.ClusterConfig.AdmissionQueue":                 "ROADMAP item 7: the admission-control ablation decides its value",
	"core.ClusterConfig.Replication":                    "DESIGN §6: replication keeps failover off the PFS, checked by TestReplicationZeroPFSFailover",
	"loadctl.Config.SketchSize":                         "ROADMAP item 7: the load-control ablation decides the sketch size",
	"loadctl.Config.SampleRate":                         "ROADMAP item 7: the load-control ablation decides the sketch sampling",
	"loadctl.Config.WindowTouches":                      "ROADMAP item 7: the load-control ablation decides the decay window",
	"loadctl.Config.HotFraction":                        "ROADMAP item 7: the load-control ablation decides the hot threshold",
	"loadctl.Config.Replicas":                           "ROADMAP item 7: the load-control ablation decides the fan-out width",
	"ftpolicy.Config.FailLow":                           "DESIGN §16.2: tests pin the burst-exit latch",
	"ftpolicy.Config.CooldownTicks":                     "DESIGN §16.2: tests pin the commit cooldown",
	"hvac.IngestConfig.MaxDelay":                        "DESIGN §13.3: ingest tests hold it at a minute so only the Flush barrier makes puts visible",
	"partition.RedistributeConfig.SimultaneousFailures": "DESIGN §6: correlated-failure redistribution, checked by TestMultiFailure",
}

// TestEveryConfigFieldIsSet walks the module and fails on an exported
// field of a non-test *Config struct that no non-test code sets: no
// composite literal of that type keys it, and no assignment names it
// outside its own defaulting (an assignment under an if whose condition
// reads the field). A knob only tests turn is a constant unless
// unsetKnobs names what keeps it. Fields and literal keys match by
// package name, type and field; the scan has no types, so assignments
// and the keys of literals with an elided type match by field name,
// and only fields of the setter's own package or of a package it
// imports. A literal of an alias (repro.TrainConfig) keys the aliased
// type's fields (dltrain.Config).
func TestEveryConfigFieldIsSet(t *testing.T) {
	fields := map[string]token.Pos{}     // "pkg.Type.Field" → declaration
	set := map[string]bool{}             // "pkg.Type.Field" keyed
	byName := map[string][]string{}      // ".Field" → directories that set it by name
	sees := map[string]map[string]bool{} // directory → its package and those it imports
	aliases := map[string]string{}       // "pkg.Alias" → "pkg.Type"
	for _, p := range parseModule(t) {
		sees[p.dir] = map[string]bool{}
		for _, f := range p.files {
			sees[p.dir][f.Name.Name] = true
			for _, imp := range f.Imports { // no import is renamed: the last element is the package name
				path := strings.Trim(imp.Path.Value, `"`)
				sees[p.dir][path[strings.LastIndexByte(path, '/')+1:]] = true
			}
			scanKnobs(f, fields, set, aliases, func(name string) { byName[name] = append(byName[name], p.dir) })
		}
	}
	for key := range set {
		dot := strings.LastIndexByte(key, '.')
		if typ, ok := aliases[key[:dot]]; ok {
			set[typ+key[dot:]] = true
		}
	}
	keys := make([]string, 0, len(fields))
	for key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	setByName := func(key string) bool {
		pkg := key[:strings.IndexByte(key, '.')]
		for _, dir := range byName[key[strings.LastIndexByte(key, '.'):]] {
			if sees[dir][pkg] {
				return true
			}
		}
		return false
	}
	used := map[string]bool{}
	for _, key := range keys {
		typ := key[:strings.LastIndexByte(key, '.')]
		switch {
		case set[key] || setByName(key):
		case unsetKnobs[key] != "":
			used[key] = true
		case unsetKnobs[typ] != "":
			used[typ] = true
		default:
			t.Errorf("%s: %s is set by nothing outside tests and its own defaulting; make it a constant, or name in unsetKnobs the DESIGN claim or ROADMAP item that keeps it", moduleFset.Position(fields[key]), key)
		}
	}
	checkAllowlist(t, "unsetKnobs", unsetKnobs, used)
}

// scanKnobs records f's *Config struct fields, its aliases of another
// package's type and every setter in f, passing each one that names
// only the field (".Field") to setByName.
func scanKnobs(f *ast.File, fields map[string]token.Pos, set map[string]bool, aliases map[string]string, setByName func(string)) {
	pkg := f.Name.Name
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.TypeSpec:
			if sel, ok := n.Type.(*ast.SelectorExpr); ok && n.Assign.IsValid() {
				if x, ok := sel.X.(*ast.Ident); ok {
					aliases[pkg+"."+n.Name.Name] = x.Name + "." + sel.Sel.Name
				}
			}
			st, ok := n.Type.(*ast.StructType)
			if !ok || !strings.HasSuffix(n.Name.Name, "Config") {
				break
			}
			for _, fd := range st.Fields.List {
				for _, name := range fd.Names {
					if name.IsExported() {
						fields[pkg+"."+n.Name.Name+"."+name.Name] = name.Pos()
					}
				}
			}
		case *ast.CompositeLit:
			typ := ""
			switch lt := n.Type.(type) {
			case *ast.Ident:
				typ = pkg + "." + lt.Name
			case *ast.SelectorExpr: // no import is renamed: the qualifier is the package name
				if x, ok := lt.X.(*ast.Ident); ok {
					typ = x.Name + "." + lt.Sel.Name
				}
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && typ != "" {
						set[typ+"."+key.Name] = true
					} else if ok {
						setByName("." + key.Name)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && !defaulting(stack, sel.Sel.Name) {
					setByName("." + sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// defaulting reports whether the node atop stack sits, within its
// function, under an if whose condition reads field.
func defaulting(stack []ast.Node, field string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.IfStmt:
			reads := false
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				sel, ok := c.(*ast.SelectorExpr)
				reads = reads || ok && sel.Sel.Name == field
				return !reads
			})
			if reads {
				return true
			}
		}
	}
	return false
}
