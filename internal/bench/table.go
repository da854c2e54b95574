// Package bench implements the experiment harness: one driver per
// figure and per quantitative claim of the paper (E1–E18, C1, F2; see
// DESIGN.md §3). Each driver runs a deterministic virtual-clock
// workload and returns a structured result that a claim test asserts
// on; Experiments is the one index that renders each result as a
// printable table matching the paper's presentation.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// Title identifies the experiment (e.g. "E1 / Figure 4").
	Title string
	// Note states the expected shape from the paper.
	Note string
	// Header labels the columns.
	Header []string
	// Rows holds the data.
	Rows [][]string
}

// Add appends a row formatted with fmt.Sprint on each cell.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s ===\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
