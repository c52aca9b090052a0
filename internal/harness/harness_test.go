package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/sim"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	paper := []string{
		"table1", "table2",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16",
		"table4", "table5",
	}
	extended := []string{
		"abl-water", "abl-sor", "abl-ra", "abl-ida", "abl-seq", "abl-tsp",
		"sens-atpg", "sens-clusters", "sens-Water", "sens-SOR", "sens-RA",
		"real-das", "coll", "sens-size", "sens-congestion", "transport",
	}
	got := Experiments()
	if len(got) != len(paper)+len(extended) {
		t.Fatalf("%d experiments registered, want %d", len(got), len(paper)+len(extended))
	}
	seen := map[string]bool{}
	for _, e := range got {
		if seen[e.ID] {
			t.Fatalf("experiment %s registered twice", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range append(paper, extended...) {
		if !seen[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
}

func TestAppByName(t *testing.T) {
	for _, name := range []string{"Water", "TSP", "ASP", "ATPG", "IDA*", "RA", "ACP", "SOR"} {
		if _, err := AppByName(name); err != nil {
			t.Fatalf("missing app %s: %v", name, err)
		}
	}
	if _, err := AppByName("Quake"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestExperimentByID(t *testing.T) {
	if _, err := ExperimentByID("fig15"); err != nil {
		t.Fatal(err)
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestTable1Shape checks the primitives table's labels and pins the
// round-trip sweep row by row: request/reply time at each payload size on the
// LAN and across the WAN.
func TestTable1Shape(t *testing.T) {
	rep, err := Table1(&Session{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"RPC (non-replicated)", "Broadcast (replicated)", "Mbit/s", "ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	want := [][]string{
		{"0", "46µs", "2.718ms"},
		{"64", "51µs", "2.969ms"},
		{"1024", "125µs", "6.744ms"},
		{"8192", "677µs", "34.929ms"},
		{"65536", "5.088ms", "260.406ms"},
		{"1048576", "80.706ms", "4.125728s"},
	}
	if len(rep.Tables) != 2 || !reflect.DeepEqual(rep.Tables[1].Rows, want) {
		t.Fatalf("round-trip sweep:\n%s\nwant rows %v", out, want)
	}
}

// TestTable1BcastLatency: the replicated-update writer sits outside the
// cluster where the rotating sequencer parks its token, so on two clusters
// every update waits for the WAN (paper: 3.0 ms) while on one it orders at
// LAN speed (paper: 65 us).
func TestTable1BcastLatency(t *testing.T) {
	var wan, lan time.Duration
	if _, err := Exec(RunSpec{App: probe("bcast", &wan, bcastLatency), Topo: cluster.DAS(2, 30), Params: Params}); err != nil {
		t.Fatal(err)
	}
	if wan < 2300*time.Microsecond || wan > 3500*time.Microsecond {
		t.Errorf("WAN broadcast latency %v, want 2.3-3.5 ms", wan)
	}
	if _, err := Exec(RunSpec{App: probe("bcast", &lan, bcastLatency), Topo: cluster.DAS(1, 60), Params: Params}); err != nil {
		t.Fatal(err)
	}
	if lan >= 200*time.Microsecond {
		t.Errorf("LAN broadcast latency %v, want under 200 us", lan)
	}
}

func TestTableRenderAligns(t *testing.T) {
	tb := &Table{
		ID: "t", Title: "demo",
		Headers: []string{"a", "bbbb"},
		Rows:    [][]string{{"xxxxxx", "y"}, {"z", "wwww"}},
	}
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header and separator misaligned:\n%s", out)
	}
}

// TestTableRenderRaggedRow: a row wider than the header renders, without a
// panic, with every column aligned and its extra cell included; CSV writes
// the row as it is.
func TestTableRenderRaggedRow(t *testing.T) {
	tb := &Table{
		ID: "t", Title: "demo",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"x", "y"}, {"long", "z", "extra"}},
	}
	want := "t: demo\n" +
		"a     bb\n" +
		"----  --\n" +
		"x     y \n" +
		"long  z   extra\n"
	if got := tb.Render(); got != want {
		t.Errorf("render:\n%q\nwant\n%q", got, want)
	}
	if got, want := tb.CSV(), "a,bb\nx,y\nlong,z,extra\n"; got != want {
		t.Errorf("csv:\n%q\nwant\n%q", got, want)
	}
}

// TestTable1MeasurementsReturnErrors runs each Table-1 microbenchmark on a
// system that cannot finish (a 1ns virtual deadline) and requires the
// engine's structured error back, not a panic: the path is reachable from
// `dasbench -exp table1`.
func TestTable1MeasurementsReturnErrors(t *testing.T) {
	for name, measure := range map[string]func(*core.System, *time.Duration){
		"rpc": rpcLatency, "bcast": bcastLatency, "stream": streamTime,
		"rtt": func(sys *core.System, out *time.Duration) { roundTrip(sys, 1024, out) },
	} {
		var v time.Duration
		_, err := Exec(RunSpec{App: probe(name, &v, measure), Topo: cluster.DAS(2, 2), Params: Params, Deadline: 1})
		var dl *sim.DeadlineError
		if !errors.As(err, &dl) {
			t.Errorf("%s measurement returned %v, want a *sim.DeadlineError", name, err)
		}
	}
}

// TestTable1ThroughTheSession: every Table 1 microbenchmark is a session run
// — one census row each — and a Transport session measures on the coalescing
// gateways: its WAN columns move while its LAN columns, which never reach a
// gateway, stay as they are.
func TestTable1ThroughTheSession(t *testing.T) {
	plain, framed := &Session{}, &Session{Transport: true}
	var reps [2]*Report
	for i, s := range []*Session{plain, framed} {
		var err error
		if reps[i], err = Table1(s); err != nil {
			t.Fatal(err)
		}
	}
	rows := plain.CensusReport().Tables[0].Rows
	if len(rows) != 18 {
		t.Fatalf("%d census rows, want one per microbenchmark (18)", len(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r[0], "table1 ") {
			t.Errorf("census row %q is not a Table 1 run", r[0])
		}
	}
	wanMoved := false
	for k, tb := range reps[0].Tables {
		for i, row := range tb.Rows {
			for j, cell := range row {
				other := reps[1].Tables[k].Rows[i][j]
				if strings.HasPrefix(tb.Headers[j], "WAN") {
					wanMoved = wanMoved || cell != other
				} else if cell != other {
					t.Errorf("%s row %d %q: %q plain, %q on the transport", tb.ID, i, tb.Headers[j], cell, other)
				}
			}
		}
	}
	if !wanMoved {
		t.Error("no WAN cell changed on the transport: Table 1 ignored the session's setting")
	}
}

// TestUnknownFigureAppIsAnError pins the registry's failure mode: a figure
// naming an application that does not exist fails its Run, it does not panic
// while the registry is being enumerated.
func TestUnknownFigureAppIsAnError(t *testing.T) {
	if _, err := SpeedupFigure(&Session{}, "figX", "Quake", false); err == nil {
		t.Fatal("unknown application accepted")
	}
	if _, err := wanSweep(&Session{}, &Table{}, "Quake", nil); err == nil {
		t.Fatal("unknown application accepted by a WAN sweep")
	}
}

func TestRunMemoization(t *testing.T) {
	s := &Session{}
	app, err := AppByName("ACP")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Run(s.Spec(app, cluster.DAS(1, 2), false))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Run(s.Spec(app, cluster.DAS(1, 2), false))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Elapsed != m2.Elapsed {
		t.Fatal("memoized run differs")
	}
}

func TestSpeedupSanity(t *testing.T) {
	s := &Session{}
	app, err := AppByName("ASP")
	if err != nil {
		t.Fatal(err)
	}
	sps, _, err := s.Speedups(s.Spec(app, cluster.DAS(1, 4), false))
	if err != nil {
		t.Fatal(err)
	}
	if sp := sps[0]; sp <= 1 || sp > 4 {
		t.Fatalf("4-CPU speedup %.2f outside (1, 4]", sp)
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		ID: "figX", Title: "demo",
		Figure: &Figure{Series: []Series{{Label: "1 Cluster", Points: []Point{{CPUs: 8, Speedup: 6.5}}}}},
		Notes:  []string{"hello"},
	}
	out := rep.Render()
	for _, want := range []string{"figX", "1 Cluster", "8 cpus: 6.5", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1,5", `say "hi"`}, {"2", "3"}},
	}
	got := tb.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n2,3\n"
	if got != want {
		t.Fatalf("csv:\n%q\nwant\n%q", got, want)
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{Series: []Series{{Label: "1 Cluster", Points: []Point{{CPUs: 8, Speedup: 6.5}}}}}
	got := f.CSV()
	if !strings.Contains(got, "series,cpus,speedup") || !strings.Contains(got, "1 Cluster,8,6.5000") {
		t.Fatalf("figure csv:\n%s", got)
	}
}

// TestSequentialLayoutIsOneEngine pins the sequential case of the state
// layout rule (DESIGN.md §5c): on a plain system every cluster's events run
// on the root engine, so netsim.PerEngine builds one instance that every
// cluster aliases. The figures that instance produces are pinned by the
// goldens.
func TestSequentialLayoutIsOneEngine(t *testing.T) {
	sys := core.NewDAS(4, 15)
	defer sys.Engine.Shutdown()
	for c := 0; c < sys.Topo.Clusters; c++ {
		if sys.Net.EngineFor(c) != sys.Engine {
			t.Fatalf("cluster %d runs on %p, want the root engine %p", c, sys.Net.EngineFor(c), sys.Engine)
		}
	}
}
