package experiments

import (
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// A Table is one experiment's result as rows of string cells: the CSV
// holds the header and the rows, the console adds the title and the
// notes. Times are seconds and ratios are fractions, both as floats.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are lines the console prints under the rows.
	Notes []string
}

// The cell formats: shortest exact float, integer, seconds.
func f(v float64) string          { return strconv.FormatFloat(v, 'f', -1, 64) }
func d[T int | int64](v T) string { return strconv.FormatInt(int64(v), 10) }
func sec(v time.Duration) string  { return f(v.Seconds()) }

// WriteCSV writes t's header and rows as CSV, the form results/csv
// holds.
func WriteCSV(out io.Writer, t Table) error {
	return csv.NewWriter(out).WriteAll(append([][]string{t.Header}, t.Rows...))
}

// Render returns t for the console: the title, then the header and rows
// right-aligned in columns, every decimal cell cut to four significant
// digits, then the notes.
func Render(t Table) string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	io.WriteString(tw, strings.Join(t.Header, "\t")+"\t\n")
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = short(c)
		}
		io.WriteString(tw, strings.Join(cells, "\t")+"\t\n")
	}
	tw.Flush()
	for _, n := range t.Notes {
		b.WriteString("  " + n + "\n")
	}
	return b.String()
}

// short cuts a decimal cell to four significant digits without an
// exponent; integers and words pass unchanged.
func short(c string) string {
	v, err := strconv.ParseFloat(c, 64)
	if err != nil || v == 0 || !strings.Contains(c, ".") {
		return c
	}
	return strconv.FormatFloat(v, 'f', max(0, 3-int(math.Floor(math.Log10(math.Abs(v))))), 64)
}
