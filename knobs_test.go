package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unsetKnobs lists the exported *Config fields that may have no setter,
// keyed "Type.Field" (or "Type" for every field of the type), each with
// its reason.
var unsetKnobs = map[string]string{
	"vetConfig":                    "go vet writes it as JSON; ftclint only decodes it",
	"ClusterConfig.AdmissionLimit": "kept until the admission-control ablation decides its value",
	"ClusterConfig.AdmissionQueue": "kept until the admission-control ablation decides its value",
}

// TestEveryConfigFieldIsSet walks the module and fails on an exported
// field of a non-test *Config struct that no code or test sets: no
// composite literal of that type keys it, and no assignment names it
// outside its own defaulting (an assignment under an if whose condition
// reads the field). A knob nothing turns is a constant. The scan has no
// types, so assignments and the keys of literals with an elided type
// match by field name alone.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string]token.Pos{} // "Type.Field" → declaration
	set := map[string]bool{}         // "Type.Field" keyed; ".Field" by name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			scanKnobs(f, !strings.HasSuffix(path, "_test.go"), fields, set)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(fields))
	for key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	used := map[string]bool{}
	for _, key := range keys {
		typ, field, _ := strings.Cut(key, ".")
		switch {
		case set[key] || set["."+field]:
		case unsetKnobs[key] != "":
			used[key] = true
		case unsetKnobs[typ] != "":
			used[typ] = true
		default:
			t.Errorf("%s: %s is set by nothing outside its own defaulting; make it a constant", fset.Position(fields[key]), key)
		}
	}
	for key := range unsetKnobs {
		if !used[key] {
			t.Errorf("unsetKnobs entry %q names no unset field; delete it", key)
		}
	}
}

// scanKnobs records f's *Config struct fields (when declared is set)
// and every setter in f.
func scanKnobs(f *ast.File, declared bool, fields map[string]token.Pos, set map[string]bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.TypeSpec:
			st, ok := n.Type.(*ast.StructType)
			if !declared || !ok || !strings.HasSuffix(n.Name.Name, "Config") {
				break
			}
			for _, fd := range st.Fields.List {
				for _, name := range fd.Names {
					if name.IsExported() {
						fields[n.Name.Name+"."+name.Name] = name.Pos()
					}
				}
			}
		case *ast.CompositeLit:
			typ := ""
			switch lt := n.Type.(type) {
			case *ast.Ident:
				typ = lt.Name
			case *ast.SelectorExpr:
				typ = lt.Sel.Name
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[typ+"."+key.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && !defaulting(stack, sel.Sel.Name) {
					set["."+sel.Sel.Name] = true
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
