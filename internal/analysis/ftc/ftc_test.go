package ftc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// posOf returns the Pos at the start of the first occurrence of marker.
func posOf(t *testing.T, fset *token.FileSet, src, marker string) token.Pos {
	t.Helper()
	off := strings.Index(src, marker)
	if off < 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	var file *token.File
	fset.Iterate(func(f *token.File) bool { file = f; return false })
	return file.Pos(off)
}

func TestSuppressions(t *testing.T) {
	src := `package a

func f() {
	x() //ftclint:ignore poollease pool reclaimed on close
	y()
	//ftclint:ignore errclass classified by the caller
	z()
}
`
	fset, files := parseSrc(t, src)
	sup, bad := collectSuppressions(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed suppressions: %v", bad)
	}

	cases := []struct {
		marker   string
		analyzer string
		want     bool
	}{
		{"x()", "poollease", true},    // same-line ignore, matching analyzer
		{"x()", "hotpathlock", false}, // same-line ignore, different analyzer
		{"y()", "poollease", false},   // no ignore on or above this line
		{"z()", "errclass", true},     // standalone ignore on the line above
		{"z()", "poollease", false},   // it names one analyzer only
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: c.analyzer, Pos: posOf(t, fset, src, c.marker)}
		if got := sup.suppressed(fset, d); got != c.want {
			t.Errorf("Suppressed(%s at %q) = %v, want %v", c.analyzer, c.marker, got, c.want)
		}
	}
}

func TestMalformedSuppression(t *testing.T) {
	src := `package a

func f() {
	x() //ftclint:ignore poollease
	y() //ftclint:ignore
}
`
	fset, files := parseSrc(t, src)
	_, bad := collectSuppressions(fset, files)
	if len(bad) != 2 {
		t.Fatalf("got %d malformed-suppression diagnostics, want 2: %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Analyzer != "ftclint" {
			t.Errorf("malformed suppression attributed to %q, want ftclint", d.Analyzer)
		}
		if !strings.Contains(d.Message, "malformed ftclint:ignore") {
			t.Errorf("unexpected message %q", d.Message)
		}
	}
}

// TestSuppressionAudit runs a suite whose one analyzer reports every
// call to x: the live ignore silences its finding, and the stale and
// the misspelt one are each reported under the name they carry.
func TestSuppressionAudit(t *testing.T) {
	src := `package a

func x() {}

func f() {
	x() //ftclint:ignore calls covered
	x()
	//ftclint:ignore calls nothing to cover below
	_ = 1
	x() //ftclint:ignore cals misspelt
}
`
	fset, files := parseSrc(t, src)
	pkg, info, err := Check(fset, "a", files, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := &Analyzer{Name: "calls", Run: func(p *Pass) (any, error) {
		ast.Inspect(p.Files[0], func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				p.Reportf(call.Pos(), "call")
			}
			return true
		})
		return nil, nil
	}}
	diags, err := RunPackage(fset, files, pkg, info, []*Analyzer{calls}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s: %s", fset.Position(d.Pos).Line, d.Analyzer, d.Message))
	}
	want := []string{
		"7 calls: call",
		"8 calls: stale //ftclint:ignore: it suppresses nothing — delete it",
		"10 calls: call",
		`10 cals: //ftclint:ignore names "cals", which is not an analyzer in the suite`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestHasHotPath(t *testing.T) {
	src := `package a

//ftc:hotpath
func marked() {}

// Comment first.
//
//ftc:hotpath
func markedAfterProse() {}

// ftc:hotpath — a space after the slashes is prose, not a directive.
func prose() {}

//ftc:hotpathological
func prefixOnly() {}

func unmarked() {}
`
	_, files := parseSrc(t, src)
	want := map[string]bool{
		"marked":           true,
		"markedAfterProse": true,
		"prose":            false,
		"prefixOnly":       false,
		"unmarked":         false,
	}
	for _, decl := range files[0].Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if got := HasHotPath(fd); got != want[fd.Name.Name] {
			t.Errorf("HasHotPath(%s) = %v, want %v", fd.Name.Name, got, want[fd.Name.Name])
		}
	}
}
