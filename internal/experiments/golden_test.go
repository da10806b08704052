package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/csv from this run")

// TestPaperCSVs runs every experiment at PaperScale and holds its CSV to
// results/csv/<name>.csv byte for byte: each table and figure is
// deterministic for its seed, so a change that moves one must
// regenerate the files on purpose, with
//
//	go test -run TestPaperCSVs ./internal/experiments -update
func TestPaperCSVs(t *testing.T) {
	w := NewSweep(PaperScale())
	for _, name := range Names() {
		r, _ := w.Run(name)
		var got bytes.Buffer
		if err := WriteCSV(&got, r.Tabulate()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("..", "..", "results", "csv", name+".csv")
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if line, gotLine, wantLine, differ := firstDiff(got.Bytes(), want); differ {
			t.Errorf("%s.csv differs at line %d:\n got: %q\nwant: %q", name, line, gotLine, wantLine)
		}
	}
}

// firstDiff returns the first line (1-based) where got and want differ,
// with both versions of it; a missing line reads as empty.
func firstDiff(got, want []byte) (line int, g, w []byte, differ bool) {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w = nil, nil
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return i + 1, g, w, true
		}
	}
	return 0, nil, nil, false
}
