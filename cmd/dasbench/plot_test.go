package main

import (
	"strings"
	"testing"

	"albatross/internal/harness"
)

func demoFigure() *harness.Figure {
	return &harness.Figure{
		ID: "demo", Title: "Demo",
		Series: []harness.Series{
			{Label: "1 Cluster", Points: []harness.Point{{CPUs: 1, Speedup: 1}, {CPUs: 32, Speedup: 28}, {CPUs: 60, Speedup: 45}}},
			{Label: "4 Clusters", Points: []harness.Point{{CPUs: 8, Speedup: 4}, {CPUs: 60, Speedup: 9}}},
		},
	}
}

func TestRenderContainsGlyphsAndLegend(t *testing.T) {
	out := renderPlot(demoFigure())
	for _, want := range []string{"Demo", "o 1 Cluster", "+ 4 Clusters", "."} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Fatalf("series glyphs not drawn:\n%s", out)
	}
}

func TestRenderDimensions(t *testing.T) {
	out := renderPlot(demoFigure())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 24 rows + axis + legend
	if len(lines) != 27 {
		t.Fatalf("rendered %d lines, want 27", len(lines))
	}
	for _, l := range lines[1:25] {
		if len(l) != 65 { // "|" + width
			t.Fatalf("row width %d, want 65: %q", len(l), l)
		}
	}
}

func TestOutOfRangePointsDoNotPanic(t *testing.T) {
	fig := demoFigure()
	fig.Series[0].Points = append(fig.Series[0].Points, harness.Point{CPUs: 200, Speedup: 500})
	_ = renderPlot(fig)
}
