package harness

import (
	"fmt"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// FigureCPUs is the paper's x-axis: total CPU counts per speedup figure.
var FigureCPUs = []int{8, 16, 32, 60}

// FigureClusters are the cluster counts plotted as separate lines.
var FigureClusters = []int{1, 2, 4}

// SpeedupFigure measures one application variant over the paper's grid.
// The grid's runs execute concurrently on the session's worker pool; the
// series are then rendered from the results in grid order.
func SpeedupFigure(s *Session, id, appName string, optimized bool) (*Report, error) {
	app, err := AppByName(appName)
	if err != nil {
		return nil, err
	}
	var specs []RunSpec
	for _, c := range FigureClusters {
		for _, cpus := range FigureCPUs {
			if cpus%c == 0 {
				specs = append(specs, s.Spec(app, cluster.DAS(c, cpus/c), optimized))
			}
		}
	}
	sp, _, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: figureTitle(appName, optimized)}
	for i, spec := range specs {
		c := spec.Topo.Clusters
		if i == 0 || specs[i-1].Topo.Clusters != c {
			ser := Series{Label: fmt.Sprintf("%d Cluster(s)", c)}
			if c == 1 {
				ser.Points = []Point{{CPUs: 1, Speedup: 1}} // the baseline itself
			}
			fig.Series = append(fig.Series, ser)
		}
		ser := &fig.Series[len(fig.Series)-1]
		ser.Points = append(ser.Points, Point{CPUs: spec.Topo.Compute(), Speedup: sp[i]})
	}
	return &Report{ID: id, Title: fig.Title, Figure: fig}, nil
}

func figureTitle(appName string, optimized bool) string {
	return fmt.Sprintf("Speedup of %s %s", variantName(optimized), appName)
}

// variantName is how reports label the two programs of an application.
func variantName(optimized bool) string {
	if optimized {
		return "optimized"
	}
	return "original"
}

// figSpec maps the paper's figure numbers onto app variants.
type figSpec struct {
	id        string
	app       string
	optimized bool
}

var speedupFigures = []figSpec{
	{"fig1", "Water", false}, {"fig2", "Water", true},
	{"fig3", "TSP", false}, {"fig4", "TSP", true},
	{"fig5", "ASP", false}, {"fig6", "ASP", true},
	{"fig7", "ATPG", false}, {"fig8", "ATPG", true},
	{"fig9", "RA", false}, {"fig10", "RA", true},
	{"fig11", "IDA*", false},
	{"fig12", "ACP", false},
	{"fig13", "SOR", false}, {"fig14", "SOR", true},
}

// Table1 reproduces the paper's low-level Orca primitive measurements:
// null-RPC and replicated-update latency plus stream bandwidth, over the
// LAN and over the WAN, followed by a request/reply round-trip sweep over
// message sizes on both network levels.
func Table1(s *Session) (*Report, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Application-to-application performance of the low-level primitives",
		Headers: []string{"Benchmark", "LAN latency", "WAN latency", "LAN bandwidth", "WAN bandwidth"},
	}
	sweep := &Table{
		ID:      "table1-rtt",
		Title:   "Round-trip time by message size (request size = reply size)",
		Headers: []string{"bytes", "LAN", "WAN"},
	}
	// Every microbenchmark is an independent run through the session, so it
	// takes the session's transport and is logged for its census; run them
	// concurrently and assemble the rows afterwards.
	das := func(name string, clusters, perCluster int, out *time.Duration, measure func(*core.System, *time.Duration)) func() error {
		return func() error {
			_, err := s.Exec(s.Spec(probe(name, out, measure), cluster.DAS(clusters, perCluster), false))
			return err
		}
	}
	var lanRPC, wanRPC, lanB, wanB, lanStream, wanStream time.Duration
	sizes := []int{0, 64, 1024, 8192, 65536, 1 << 20}
	rtts := make([][2]time.Duration, len(sizes)) // LAN, WAN per size
	tasks := []func() error{
		das("rpc", 1, 2, &lanRPC, rpcLatency),
		das("rpc", 2, 2, &wanRPC, rpcLatency),
		das("bcast", 1, 60, &lanB, bcastLatency),
		das("bcast", 2, 30, &wanB, bcastLatency),
		das("stream", 1, 2, &lanStream, streamTime),
		das("stream", 2, 2, &wanStream, streamTime),
	}
	for i, size := range sizes {
		for lvl := range rtts[i] {
			tasks = append(tasks, das(fmt.Sprintf("rtt %dB", size), lvl+1, 2, &rtts[i][lvl],
				func(sys *core.System, out *time.Duration) { roundTrip(sys, size, out) }))
		}
	}
	if err := s.do(tasks...); err != nil {
		return nil, err
	}
	lanBW, wanBW := streamBandwidth(lanStream), streamBandwidth(wanStream)
	t.Rows = append(t.Rows,
		[]string{"RPC (non-replicated)", fmtUS(lanRPC), fmtUS(wanRPC), fmtMbit(lanBW), fmtMbit(wanBW)},
		[]string{"Broadcast (replicated)", fmtUS(lanB), fmtUS(wanB), fmtMbit(lanBW), fmtMbit(wanBW)},
	)
	for i, size := range sizes {
		sweep.Rows = append(sweep.Rows, []string{fmt.Sprint(size), roundDur(rtts[i][0]), roundDur(rtts[i][1])})
	}
	return &Report{ID: "table1", Title: t.Title, Tables: []*Table{t, sweep},
		Notes: []string{"paper: RPC 40us/2.7ms, bcast 65us/3.0ms, 208/4.53 Mbit/s"}}, nil
}

func fmtUS(d time.Duration) string {
	if d >= time.Millisecond {
		return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
	}
	return fmt.Sprintf("%.0f us", float64(d)/float64(time.Microsecond))
}

func fmtMbit(bps float64) string { return fmt.Sprintf("%.2f Mbit/s", bps*8/1e6) }

// farNode is where the microbenchmarks place their remote end, seen from
// node 0: its LAN neighbor on one cluster, the first node of the other
// cluster on two — so the exchange crosses the WAN.
func farNode(sys *core.System) cluster.NodeID {
	if sys.Topo.Clusters == 2 {
		return sys.Topo.Node(1, 0)
	}
	return 1
}

// probe is one Table 1 microbenchmark as a one-off application: its Build
// has measure spawn the measuring processes, which write the measured time
// to out before the run ends. There is nothing to verify.
func probe(name string, out *time.Duration, measure func(*core.System, *time.Duration)) AppSpec {
	return AppSpec{Name: "table1 " + name, Build: func(sys *core.System, _ bool) func() error {
		measure(sys, out)
		return nil
	}}
}

// nullLatency has a process named name on farNode invoke a null operation
// on obj ten times and records the mean time per invocation.
func nullLatency(sys *core.System, name string, obj *orca.Object, out *time.Duration) {
	sys.SpawnAt(farNode(sys), name, func(w *core.Worker) {
		const reps = 10
		start := w.P.Now()
		for i := 0; i < reps; i++ {
			w.Invoke(obj, orca.Op{Name: "null", Apply: func(s any) any { return nil }})
		}
		*out = (w.P.Now() - start) / reps
	})
}

// rpcLatency times a null remote invocation on an object owned by node 0;
// on two clusters the call crosses the WAN twice.
func rpcLatency(sys *core.System, out *time.Duration) {
	nullLatency(sys, "caller", sys.RTS.NewObject("null", 0, struct{}{}), out)
}

// bcastLatency times a null replicated update on an object replicated on
// every node (paper Table 1's 60-replica benchmark). The writer is farNode:
// the rotating sequencer parks its token in cluster 0 while idle, so a writer
// there would order its updates at LAN speed even on two clusters.
func bcastLatency(sys *core.System, out *time.Duration) {
	nullLatency(sys, "writer", sys.RTS.NewReplicated("null", func(cluster.NodeID) any { return struct{}{} }), out)
}

// roundTrip times one request/reply exchange with size-byte payloads each
// way, from node 0 to an echo service on farNode.
func roundTrip(sys *core.System, size int, out *time.Duration) {
	peer, echo := farNode(sys), sys.RTS.InternTag(orca.Tag{Op: "echo"})
	mb := sys.RTS.RegisterService(peer, echo)
	sys.SpawnAt(peer, "server", func(w *core.Worker) {
		w.P.SetDaemon(true)
		for {
			req := orca.NextRequest(w.P, mb)
			req.Reply(size, req.Payload)
		}
	})
	sys.SpawnAt(0, "client", func(w *core.Worker) {
		start := w.P.Now()
		w.Call(peer, echo, size, "ping")
		*out = w.P.Now() - start
	})
}

// The bandwidth stream: streamMsgs messages of streamChunk bytes each.
const streamMsgs, streamChunk = 20, 100 * 1024

// streamTime streams the bandwidth messages point-to-point from node 0
// (across the WAN on two clusters) and records when the sink has them all.
func streamTime(sys *core.System, out *time.Duration) {
	dst := farNode(sys)
	doneF := sim.NewFuture(sys.Engine, "bw-done")
	tag := sys.RTS.InternTag(orca.Tag{Op: "bw"})
	sys.SpawnAt(dst, "sink", func(w *core.Worker) {
		for i := 0; i < streamMsgs; i++ {
			w.RecvID(tag)
		}
		doneF.Set(nil)
	})
	sys.SpawnAt(0, "src", func(w *core.Worker) {
		for i := 0; i < streamMsgs; i++ {
			w.SendID(dst, tag, streamChunk, nil)
		}
		doneF.Await(w.P)
		*out = w.P.Now()
	})
}

// streamBandwidth is the bytes per second a stream that took elapsed achieved.
func streamBandwidth(elapsed time.Duration) float64 {
	return float64(streamMsgs*streamChunk) / elapsed.Seconds()
}

// Table2 reproduces the application characteristics on 64 processors of a
// single cluster: point-to-point operations and broadcasts per second,
// their payload volume, and the 64-CPU speedup.
func Table2(s *Session) (*Report, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Application characteristics on 64 processors, one cluster",
		Headers: []string{"program", "# RPC/s", "kbytes/s", "# bcast/s", "kbytes/s", "speedup"},
	}
	var specs []RunSpec
	for _, app := range Apps {
		specs = append(specs, s.Spec(app, cluster.DAS(1, 64), false))
	}
	sp, res, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	for i, m := range res {
		secs := m.Elapsed.Seconds()
		rpcs := m.Ops.RPCs + m.Ops.Requests + m.Ops.DataMsgs
		rpcKB := float64(m.Ops.RPCBytes+m.Ops.DataBytes) / 1024
		t.Rows = append(t.Rows, []string{
			specs[i].App.Name,
			fmt.Sprintf("%.0f", float64(rpcs)/secs),
			fmt.Sprintf("%.0f", rpcKB/secs),
			fmt.Sprintf("%.0f", float64(m.Ops.Bcasts)/secs),
			fmt.Sprintf("%.0f", float64(m.Ops.BcastBytes)/1024/secs),
			fmt.Sprintf("%.1f", sp[i]),
		})
	}
	return &Report{ID: "table2", Title: t.Title, Tables: []*Table{t}}, nil
}

// trafficTable builds the paper's intercluster traffic accounting (Tables 4
// and 5): P=64 over C=4 clusters, per application.
func trafficTable(s *Session, id string, optimized bool) (*Report, error) {
	when := "Before"
	if optimized {
		when = "After"
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Intercluster Traffic %s Optimization (P=64, C=4)", when),
		Headers: []string{"Application", "# RPC", "RPC kbyte", "# bcast", "bcast kbyte"},
	}
	var specs []RunSpec
	var at []int // the row each spec fills
	for _, app := range Apps {
		if optimized && app.Name == "ACP" {
			// The paper implemented no ACP optimization; its Table 5 row
			// is empty. We still measure our async-broadcast extension in
			// the ablation benches, but mirror the paper here.
			t.Rows = append(t.Rows, []string{"ACP'", "-", "-", "-", "-"})
			continue
		}
		at = append(at, len(t.Rows))
		t.Rows = append(t.Rows, nil)
		specs = append(specs, s.Spec(app, cluster.DAS(4, 16), optimized))
	}
	res, err := s.All(specs...)
	if err != nil {
		return nil, err
	}
	for i, m := range res {
		rpc := m.Net.InterRPC()
		data := m.Net.InterData()
		bc := m.Net.InterBcast()
		ctl := m.Net.Inter(netsim.KindControl)
		name := specs[i].App.Name
		if optimized {
			name += "'"
		}
		t.Rows[at[i]] = []string{
			name,
			fmt.Sprintf("%d", rpc.Msgs+data.Msgs),
			fmt.Sprintf("%.0f", rpc.KBytes()+data.KBytes()),
			fmt.Sprintf("%d", bc.Msgs+ctl.Msgs),
			fmt.Sprintf("%.0f", bc.KBytes()+ctl.KBytes()),
		}
	}
	return &Report{ID: id, Title: t.Title, Tables: []*Table{t}}, nil
}

// barTable runs the bar-chart summaries (Figures 15 and 16) as tables.
func barTable(s *Session, id string, shapes []barShape) (*Report, error) {
	headers := []string{"App"}
	for _, sh := range shapes {
		headers = append(headers, sh.label)
	}
	t := &Table{ID: id, Title: barTitle(id), Headers: headers}
	var specs []RunSpec
	for _, app := range Apps {
		for _, sh := range shapes {
			specs = append(specs, s.Spec(app, cluster.DAS(sh.clusters, sh.perCluster), sh.optimized))
		}
	}
	sp, _, err := s.Speedups(specs...)
	if err != nil {
		return nil, err
	}
	t.Rows = speedupRows(sp, len(shapes))
	return &Report{ID: id, Title: t.Title, Tables: []*Table{t}}, nil
}

// speedupRows renders per-application speedups, n columns per application in
// Apps order, as one row each headed by the application's name.
func speedupRows(sp []float64, n int) [][]string {
	rows := make([][]string, len(Apps))
	for i, app := range Apps {
		rows[i] = []string{app.Name}
		for _, v := range sp[i*n : (i+1)*n] {
			rows[i] = append(rows[i], fmt.Sprintf("%.1f", v))
		}
	}
	return rows
}

type barShape struct {
	label      string
	clusters   int
	perCluster int
	optimized  bool
}

func barTitle(id string) string {
	if id == "fig15" {
		return "Four-Cluster Performance Improvements on 15 and 60 processors"
	}
	return "Two-Cluster Performance Improvements on 16 and 32 processors"
}

var fig15Shapes = []barShape{
	{"LowerBound 15/1 orig", 1, 15, false},
	{"Original 60/4", 4, 15, false},
	{"Optimized 60/4", 4, 15, true},
	{"UpperBound 60/1 opt", 1, 60, true},
}

var fig16Shapes = []barShape{
	{"Original 16/1", 1, 16, false},
	{"Original 32/2", 2, 16, false},
	{"Optimized 32/2", 2, 16, true},
	{"Optimized 32/1", 1, 32, true},
}

// Experiment is one runnable, named reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Session) (*Report, error)
}

// Experiments enumerates every table and figure of the paper's evaluation,
// then the ablation and sensitivity studies that go beyond its published
// artifacts (its stated future work). An unknown application name surfaces
// as an error from that experiment's Run, not a panic here.
func Experiments() []Experiment {
	out := []Experiment{
		{"table1", "Low-level Orca primitive performance", Table1},
		{"table2", "Application characteristics (64 CPUs, 1 cluster)", Table2},
	}
	for _, fs := range speedupFigures {
		fs := fs
		out = append(out, Experiment{fs.id, figureTitle(fs.app, fs.optimized),
			func(s *Session) (*Report, error) { return SpeedupFigure(s, fs.id, fs.app, fs.optimized) }})
	}
	out = append(out,
		Experiment{"fig15", barTitle("fig15"),
			func(s *Session) (*Report, error) { return barTable(s, "fig15", fig15Shapes) }},
		Experiment{"fig16", barTitle("fig16"),
			func(s *Session) (*Report, error) { return barTable(s, "fig16", fig16Shapes) }},
		Experiment{"table4", "Intercluster traffic before optimization",
			func(s *Session) (*Report, error) { return trafficTable(s, "table4", false) }},
		Experiment{"table5", "Intercluster traffic after optimization",
			func(s *Session) (*Report, error) { return trafficTable(s, "table5", true) }},
		Experiment{"abl-water", "Ablation: Water cache vs reduction", AblationWater},
		Experiment{"abl-sor", "Ablation: SOR exchange skipping vs convergence", AblationSOR},
		Experiment{"abl-ra", "Ablation: RA combining levels", AblationRA},
		Experiment{"abl-ida", "Ablation: IDA* stealing policies", AblationIDA},
		Experiment{"abl-seq", "Ablation: sequencer protocols", AblationSequencer},
		Experiment{"abl-tsp", "Ablation: TSP job grain", AblationTSP},
		Experiment{"sens-atpg", "Sensitivity: ATPG on slow networks (paper 4.4)", SensitivityATPG},
		Experiment{"real-das", "Extension: the full irregular DAS of Figure 17", RealDAS},
		Experiment{"coll", "Extension: cluster-aware collective operations", Collectives},
		Experiment{"sens-clusters", "Sensitivity: cluster count at 48 CPUs", SensitivityClusters},
		Experiment{"sens-size", "Sensitivity: ASP problem size (grain)", SensitivitySize},
		Experiment{"sens-congestion", "Sensitivity: congestion waves and loaded gateways", SensitivityCongestion},
		Experiment{"transport", "Extension: gateway frame coalescing + striping (orig / app-opt / transport-opt)", TransportReport},
	)
	for _, name := range []string{"Water", "SOR", "RA"} {
		name := name
		out = append(out, Experiment{"sens-" + name, "Sensitivity: " + name + " vs WAN quality",
			func(s *Session) (*Report, error) { return SensitivityWAN(s, name) }})
	}
	return out
}

// ExperimentByID finds a registered experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
