// Command dasbench regenerates the paper's tables and figures on the
// simulated DAS platform.
//
// Usage:
//
//	dasbench -exp all            # every experiment, paper order
//	dasbench -exp fig5,fig6      # selected experiments
//	dasbench -list               # show what is available
//	dasbench -exp fig1 -plot     # additionally draw ASCII speedup charts
//	dasbench -exp fig9 -census   # additionally list each run's event census
//	dasbench -exp fig9 -coalesce 32768 -coalesce-window 500us -streams 4
//	                             # ... on the coalescing/striping runtime
//	dasbench -topo 4x16 -apps all # WAN traffic by kind and per-link load of
//	                             # every app on a uniform 4x16 DAS platform
//	dasbench -topo examples/topologies/tiered64.json -apps SOR,RA
//	                             # ... on a declarative tiered topology, with
//	                             # per-link-class WAN statistics
//
// Runs execute -parallel at a time, each on its own sequential engine;
// output is byte-identical at any -parallel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/harness"
	"albatross/internal/plot"
	"albatross/internal/trace"
)

func main() {
	var (
		expFlag      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		listFlag     = flag.Bool("list", false, "list available experiments")
		plotFlag     = flag.Bool("plot", true, "render ASCII charts for speedup figures")
		timelineFlag = flag.String("timeline", "", "show a message-activity timeline for one application on 4x15 instead of running experiments")
		chaosFlag    = flag.Bool("chaos", false, "run the fault-injection chaos sweep (loss rate x outage duration) instead of the paper experiments")
		quickFlag    = flag.Bool("quick", false, "with -chaos: trim the sweep to the smoke-test scenarios")
		csvFlag      = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
		parallelFlag = flag.Int("parallel", 0, "simulation runs to execute concurrently (0 = GOMAXPROCS); output is identical at any setting")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (taken after all runs drain) to this file")
		coalesceFlag = flag.Int("coalesce", 0, "gateway transport: max coalesced WAN frame size in bytes (0 = no size bound)")
		windowFlag   = flag.Duration("coalesce-window", 0, "gateway transport: max virtual time a WAN message waits for frame companions (0 = no window)")
		streamsFlag  = flag.Int("streams", 0, "gateway transport: parallel WAN streams per directed cluster pair (0/1 = single pipe)")
		topoFlag     = flag.String("topo", "", "run on a uniform CxN DAS shape (e.g. 4x16) or a declarative topology configuration (JSON file, see examples/topologies) instead of the paper experiments")
		appsFlag     = flag.String("apps", "ASP", "with -topo: comma-separated application names, or 'all'")
		censusFlag   = flag.Bool("census", false, "after the reports, print one row per run: events dispatched and what scheduled them")
	)
	flag.Parse()
	// The transport flags run every experiment on the coalescing/striping
	// runtime (the "transport" experiment sweeps it explicitly either way).
	s := &harness.Session{
		Workers: *parallelFlag,
		Transport: harness.Transport{
			MaxFrameBytes:  *coalesceFlag,
			CoalesceWindow: *windowFlag,
			WANStreams:     *streamsFlag,
		},
	}
	if err := s.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dasbench:", err)
		os.Exit(2)
	}

	// What follows the reports of every mode: with -census, the simulator's
	// own event counters.
	epilogue := func() {
		if !*censusFlag {
			return
		}
		rep := s.CensusReport()
		fmt.Print(rep.Render())
		if err := writeCSV(os.Stdout, *csvFlag, rep.ID, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// The heap snapshot is taken after the scheduler has drained every
		// run, so it reflects steady-state retention, not in-flight churn.
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *listFlag {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *timelineFlag != "" {
		if err := showTimeline(s, *timelineFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *chaosFlag {
		if err := runChaos(s, *quickFlag, *csvFlag, *topoFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		epilogue()
		return
	}
	if *topoFlag != "" {
		if err := runTopo(os.Stdout, s, *topoFlag, *appsFlag, *csvFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		epilogue()
		return
	}

	var selected []harness.Experiment
	if *expFlag == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := harness.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		rep, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if *plotFlag && rep.Figure != nil {
			fmt.Print(plot.Render(rep.Figure, 64, 24))
		}
		if err := writeCSV(os.Stdout, *csvFlag, e.ID, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs wall clock; all results verified against sequential references)\n\n",
			e.ID, time.Since(start).Seconds())
	}
	epilogue()
}

// writeCSV writes the report's data as <dir>/<id>.csv and says so on out; an
// empty dir (no -csv flag) does nothing.
func writeCSV(out io.Writer, dir, id string, rep *harness.Report) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "(csv written to %s)\n", path)
	return nil
}

// runChaos renders the fault-injection degradation sweep, then a chaos
// timeline of one representative run so the injected faults (distinct glyph
// ramp) can be read against the traffic they perturb. With -topo it
// instead runs the grid-scale sweep — loss x outage x backbone
// partition over all eight applications — and skips the timeline (the
// availability and recovery tables carry the story there).
func runChaos(s *harness.Session, quick bool, csvDir, topoArg string) error {
	start := time.Now()
	if topoArg != "" {
		topo, name, err := loadTopology(topoArg)
		if err != nil {
			return err
		}
		rep, err := harness.GridChaosReport(s, name, topo, quick)
		if err != nil {
			return err
		}
		fmt.Print(rep.Render())
		if err := writeCSV(os.Stdout, csvDir, "chaos", rep); err != nil {
			return err
		}
		fmt.Printf("(grid chaos took %.1fs wall clock; all completed runs verified against sequential references)\n",
			time.Since(start).Seconds())
		return nil
	}
	rep, err := harness.ChaosReport(s, quick)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if err := writeCSV(os.Stdout, csvDir, "chaos", rep); err != nil {
		return err
	}
	tl, err := harness.ChaosTimeline(s, "SOR", false, harness.ChaosSpec{
		Loss: 0.01, Outage: 2 * time.Second,
	}, 72)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(tl)
	fmt.Printf("(chaos took %.1fs wall clock; all runs verified against sequential references)\n",
		time.Since(start).Seconds())
	return nil
}

// showTimeline runs one application on the 4x15 platform in both variants,
// tapping every message into a time-bucketed timeline, and prints the
// communication shape of the run (bursts, phases, saturation plateaus).
func showTimeline(s *harness.Session, appName string) error {
	app, err := harness.AppByName(appName)
	if err != nil {
		return err
	}
	// A traced run is the one place readable mailbox names are worth
	// their formatting cost.
	debugNames := func(sys *core.System, _ *faults.Injector) { sys.RTS.SetDebugNames(true) }
	for _, optimized := range []bool{false, true} {
		spec := s.Spec(app, cluster.DAS(4, 15), optimized)
		tl := trace.New(time.Millisecond)
		m, err := harness.Exec(spec, debugNames, harness.TimelineHook(tl))
		if err != nil {
			return err
		}
		variant := "original"
		if optimized {
			variant = "optimized"
		}
		fmt.Printf("== %s %s on 4x15 (%.3fs virtual) ==\n", appName, variant, m.Seconds())
		fmt.Print(tl.Render(72))
		fmt.Println()
	}
	return nil
}
