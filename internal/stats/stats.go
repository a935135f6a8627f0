// Package stats provides the statistics helpers used by the benchmark
// harness: geometric means, percentage formatting, fixed-width text
// tables in the shape of the paper's figures, and the fan-out its
// sweeps and suites run on.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeomeanOverheadErr converts slowdown ratios (time/baseline) to a
// geometric-mean percentage overhead, the paper's headline metric. A
// non-positive or NaN ratio means a simulation reported a nonsensical
// cycle count: it is an error naming its index and value, so a figure
// fails loudly instead of rendering a literal "NaN" cell. No ratios
// give 0.
func GeomeanOverheadErr(ratios []float64) (float64, error) {
	if len(ratios) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, x := range ratios {
		if math.IsNaN(x) || x <= 0 {
			return 0, fmt.Errorf("geomean: non-positive value %v at index %d of %d", x, i, len(ratios))
		}
		sum += math.Log(x)
	}
	return (math.Exp(sum/float64(len(ratios))) - 1) * 100, nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }

// Table accumulates rows and renders a fixed-width text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (one header row),
// for piping into external plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		return c
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(esc(c))
		}
		b.WriteString("\n")
	}
	row(t.headers)
	for _, r := range t.rows {
		row(r)
	}
	return b.String()
}

// Series is a named sequence of (label, value) points — one bar group
// of a paper figure.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends a point.
func (s *Series) Add(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}
