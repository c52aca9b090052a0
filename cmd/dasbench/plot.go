package main

import (
	"fmt"
	"strings"

	"albatross/internal/harness"
)

// A speedup chart is drawn in the style of the paper's gnuplot figures:
// speedup on the y-axis, total CPUs on the x-axis, both from 0 to axisMax,
// the linear-speedup diagonal for reference, and one glyph per cluster count,
// on a plotWidth x plotHeight character canvas.
const (
	plotWidth, plotHeight = 64, 24
	axisMax               = 64.0
)

// glyphs per series, in order (1 cluster, 2 clusters, 4 clusters, ...).
var glyphs = []byte{'o', '+', 'x', '*', '#'}

// renderPlot draws the figure as an ASCII chart.
func renderPlot(fig *harness.Figure) string {
	grid := make([][]byte, plotHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", plotWidth))
	}
	px := func(x float64) int { return int(x / axisMax * float64(plotWidth-1)) }
	py := func(y float64) int { return plotHeight - 1 - int(y/axisMax*float64(plotHeight-1)) }
	set := func(x, y int, c byte) {
		if x >= 0 && x < plotWidth && y >= 0 && y < plotHeight {
			grid[y][x] = c
		}
	}
	// Linear-speedup diagonal.
	for x := 0.0; x <= axisMax; x += axisMax / float64(plotWidth*2) {
		set(px(x), py(x), '.')
	}
	for si, s := range fig.Series {
		g := glyphs[si%len(glyphs)]
		var prev *harness.Point
		for i := range s.Points {
			p := s.Points[i]
			if prev != nil {
				// Sparse line interpolation between consecutive points.
				steps := 8
				for k := 1; k < steps; k++ {
					fx := float64(prev.CPUs) + float64(p.CPUs-prev.CPUs)*float64(k)/float64(steps)
					fy := prev.Speedup + (p.Speedup-prev.Speedup)*float64(k)/float64(steps)
					set(px(fx), py(fy), '-')
				}
			}
			set(px(float64(p.CPUs)), py(p.Speedup), g)
			prev = &s.Points[i]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (y: speedup 0..%.0f, x: CPUs 0..%.0f, '.': linear)\n", fig.Title, axisMax, axisMax)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", plotWidth) + "\n")
	legend := make([]string, 0, len(fig.Series))
	for si, s := range fig.Series {
		legend = append(legend, fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], s.Label))
	}
	b.WriteString("  " + strings.Join(legend, "   ") + "\n")
	return b.String()
}
