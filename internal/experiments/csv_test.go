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
		if err := w.Table1().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 4)
		if rows[0][0] != "type" || len(rows) != 6 {
			t.Errorf("table1 shape: %v", rows[0])
		}
	})

	t.Run("fig1", func(t *testing.T) {
		var buf bytes.Buffer
		if err := w.Fig1().WriteCSV(&buf); err != nil {
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
		if err := w.Fig2().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 7)
		if len(rows) != 11 { // header + 2×5 buckets
			t.Errorf("fig2 rows = %d", len(rows))
		}
	})

	t.Run("fig5", func(t *testing.T) {
		var buf bytes.Buffer
		if err := w.Fig5a().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 6)
		if len(rows) != 1+len(s.Nodes)*3 {
			t.Errorf("fig5 rows = %d", len(rows))
		}
	})

	t.Run("fig6a", func(t *testing.T) {
		var buf bytes.Buffer
		if err := w.Fig6a().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf, 5)
	})

	t.Run("fig6b", func(t *testing.T) {
		var buf bytes.Buffer
		if err := w.Fig6b().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		rows := parseCSV(t, &buf, 7)
		if len(rows) != 6 { // header + 5 sweep points
			t.Errorf("fig6b rows = %d", len(rows))
		}
	})

	t.Run("extrepl", func(t *testing.T) {
		var buf bytes.Buffer
		if err := w.ExtReplication().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf, 6)
	})

	t.Run("extvnode", func(t *testing.T) {
		var buf bytes.Buffer
		if err := w.ExtVnodeSweep().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		parseCSV(t, &buf, 3)
	})
}
