package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

// parseCSV re-parses emitted CSV and sanity-checks the grid shape.
func parseCSV(t *testing.T, buf *bytes.Buffer, wantCols int) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("only %d rows", len(rows))
	}
	for i, r := range rows {
		if len(r) != wantCols {
			t.Fatalf("row %d has %d cols, want %d", i, len(r), wantCols)
		}
	}
	return rows
}

func TestCSVEmitters(t *testing.T) {
	s := tiny()
	w := NewSweep(s)

	t.Run("table1", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.Table1().Tabulate()); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 4)
		if rows[0][0] != "type" || len(rows) != 6 {
			t.Errorf("table1 shape: %v", rows[0])
		}
	})

	t.Run("fig1", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.Fig1().Tabulate()); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 6)
		if len(rows) != 28 { // header + 27 weeks
			t.Errorf("fig1 rows = %d", len(rows))
		}
		if _, err := strconv.ParseFloat(rows[1][4], 64); err != nil {
			t.Errorf("all_min not numeric: %v", err)
		}
	})

	t.Run("fig2", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.Fig2().Tabulate()); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 7)
		if len(rows) != 11 { // header + 2×5 buckets
			t.Errorf("fig2 rows = %d", len(rows))
		}
	})

	t.Run("fig5", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.Fig5a().Tabulate()); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 6)
		if len(rows) != 1+len(s.Nodes)*3 {
			t.Errorf("fig5 rows = %d", len(rows))
		}
	})

	t.Run("fig6a", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.Fig6a().Tabulate()); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf, 5)
	})

	t.Run("fig6b", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.Fig6b().Tabulate()); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 7)
		if len(rows) != 6 { // header + 5 sweep points
			t.Errorf("fig6b rows = %d", len(rows))
		}
	})

	t.Run("extrepl", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.ExtReplication().Tabulate()); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf, 6)
	})

	t.Run("extvnode", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, w.ExtVnodeSweep().Tabulate()); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf, 3)
	})
}

func TestRender(t *testing.T) {
	out := Render(Table{
		Title:  "T",
		Header: []string{"nodes", "strategy", "total_sec", "ratio", "aborted"},
		Rows: [][]string{
			{"64", "FT w/ NVMe", "3328.169030523", "0.08839870303336839", "false"},
			{"1024", "NoFT", "0", "", "true"},
		},
		Notes: []string{"a note"},
	})
	want := "T\n" +
		"  nodes    strategy  total_sec    ratio  aborted\n" +
		"     64  FT w/ NVMe       3328  0.08840    false\n" +
		"   1024        NoFT          0              true\n" +
		"  a note\n"
	if out != want {
		t.Errorf("Render =\n%s\nwant\n%s", out, want)
	}
}
