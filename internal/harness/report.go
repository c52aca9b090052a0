package harness

import (
	"fmt"
	"strings"
)

// Point is one measurement of a speedup curve.
type Point struct {
	CPUs    int
	Speedup float64
}

// Series is one curve of a figure (e.g. "2 Clusters").
type Series struct {
	Label  string
	Points []Point
}

// Figure is a speedup chart in the paper's format: speedup vs total CPUs,
// one line per cluster count.
type Figure struct {
	ID     string
	Title  string
	MaxX   int
	MaxY   float64
	Series []Series
}

// Table is a rows-and-columns report.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
}

// Render formats the table as aligned text. A row wider than the header gets
// its extra columns aligned too.
func (t *Table) Render() string {
	ncols := len(t.Headers)
	for _, row := range t.Rows {
		ncols = max(ncols, len(row))
	}
	widths := make([]int, ncols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// CSV renders a speedup figure as long-form rows: series,cpus,speedup.
func (f *Figure) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, []string{"series", "cpus", "speedup"})
	for _, s := range f.Series {
		for _, p := range s.Points {
			writeCSVRow(&b, []string{s.Label, fmt.Sprintf("%d", p.CPUs), fmt.Sprintf("%.4f", p.Speedup)})
		}
	}
	return b.String()
}

// CSV renders the whole report: the figure (if any) followed by each table,
// separated by blank lines.
func (r *Report) CSV() string {
	var parts []string
	if r.Figure != nil {
		parts = append(parts, r.Figure.CSV())
	}
	for _, t := range r.Tables {
		parts = append(parts, t.CSV())
	}
	return strings.Join(parts, "\n")
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Figure *Figure
	Tables []*Table
	Notes  []string
}

// Render formats the full report as text (figures via the plot package are
// rendered by the caller; here we emit the numeric series too).
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Figure != nil {
		for _, s := range r.Figure.Series {
			fmt.Fprintf(&b, "%-12s", s.Label)
			for _, p := range s.Points {
				fmt.Fprintf(&b, " (%d cpus: %.1f)", p.CPUs, p.Speedup)
			}
			b.WriteByte('\n')
		}
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
