// Command dasbench regenerates the paper's tables and figures on the
// simulated DAS platform.
//
// Usage:
//
//	dasbench -exp all            # every experiment, paper order
//	dasbench -exp fig5,fig6      # selected experiments
//	dasbench -list               # show what is available
//	dasbench -exp fig1 -plot=false # without the ASCII speedup charts
//	dasbench -exp fig9 -census   # additionally list each run's event census
//	dasbench -exp fig9 -transport # ... on the coalescing/striping runtime
//	dasbench -topo 4x16 -apps all # WAN traffic by kind and per-link load of
//	                             # every app on a uniform 4x16 DAS platform
//	dasbench -topo examples/topologies/tiered64.json -apps SOR,RA
//	                             # ... on a declarative tiered topology, with
//	                             # per-link-class WAN statistics
//	dasbench -chaos -quick       # the fault-injection sweep (-topo: on a grid)
//	dasbench -timeline SOR       # one app's message activity over time
//
// Runs execute -parallel at a time, each on its own sequential engine;
// output is byte-identical at any -parallel. A command line the program
// cannot run exits with status 2: an unknown flag or experiment id, a
// negative -parallel, or a flag the selected mode does not read (-quick
// without -chaos, -apps without -topo, ...). A run that fails exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/harness"
)

// options are the parsed command line.
type options struct {
	exp, timeline, csv, topo, apps              string
	list, plot, chaos, quick, transport, census bool
	parallel                                    int
}

// readBy names, for every flag that not all modes read, the modes that do.
// A flag set in any other mode is an error rather than silently dropped.
var readBy = map[string][]string{
	"list":      {"list"},
	"timeline":  {"timeline"},
	"chaos":     {"chaos"},
	"topo":      {"topo", "chaos"},
	"exp":       {"exp"},
	"plot":      {"exp"},
	"quick":     {"chaos"},
	"apps":      {"topo"},
	"csv":       {"exp", "chaos", "topo"},
	"census":    {"exp", "chaos", "topo"},
	"parallel":  {"exp", "chaos", "topo"},
	"transport": {"exp", "chaos", "topo", "timeline"},
}

// parseFlags parses args and rejects a flag the selected mode does not read.
// Every error is reported on stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	var o options
	fs := flag.NewFlagSet("dasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.exp, "exp", "all", "comma-separated experiment ids, or 'all'")
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.BoolVar(&o.plot, "plot", true, "render ASCII charts for speedup figures")
	fs.StringVar(&o.timeline, "timeline", "", "show a message-activity timeline for one application on 4x15 instead of running experiments")
	fs.BoolVar(&o.chaos, "chaos", false, "run the fault-injection chaos sweep (loss rate x outage duration) instead of the paper experiments")
	fs.BoolVar(&o.quick, "quick", false, "with -chaos: trim the sweep to the smoke-test scenarios")
	fs.StringVar(&o.csv, "csv", "", "also write each experiment's data as CSV into this directory")
	fs.IntVar(&o.parallel, "parallel", 0, "simulation runs to execute concurrently (0 = GOMAXPROCS); output is identical at any setting")
	fs.BoolVar(&o.transport, "transport", false, "run on the gateway transport layer: 32 kB coalesced WAN frames, a 500us window, 4 WAN streams")
	fs.StringVar(&o.topo, "topo", "", "run on a uniform CxN DAS shape (e.g. 4x16) or a declarative topology configuration (JSON file, see examples/topologies) instead of the paper experiments")
	fs.StringVar(&o.apps, "apps", "ASP", "with -topo: comma-separated application names, or 'all'")
	fs.BoolVar(&o.census, "census", false, "after the reports, print one row per run: events dispatched and what scheduled them")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// The mode, named by the flag that selects it, in run's precedence.
	mode := "exp"
	switch {
	case o.list:
		mode = "list"
	case o.timeline != "":
		mode = "timeline"
	case o.chaos:
		mode = "chaos"
	case o.topo != "":
		mode = "topo"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		in, ok := readBy[f.Name]
		if err != nil || !ok || slices.Contains(in, mode) {
			return
		}
		err = fmt.Errorf("-%s cannot be combined with -%s; it is read only with -%s", f.Name, mode, strings.Join(in, ", -"))
	})
	if err != nil {
		fmt.Fprintln(stderr, "dasbench:", err)
		return nil, err
	}
	return &o, nil
}

func main() {
	os.Exit(exitStatus(run(os.Args[1:], os.Stdout, os.Stderr)))
}

// usageError is a command line the program cannot run: exit status 2, where
// a run that fails exits 1.
type usageError struct{ error }

// exitStatus is the process's exit status after run returns err.
func exitStatus(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// run executes the command line args, writing reports to stdout and every
// error to stderr, once.
func run(args []string, stdout, stderr io.Writer) (err error) {
	opts, err := parseFlags(args, stderr)
	if err == flag.ErrHelp {
		return nil
	}
	if err != nil {
		return usageError{err} // parseFlags has reported it
	}
	defer func() {
		if err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()
	// -transport runs every experiment on the coalescing/striping runtime
	// (the "transport" experiment sweeps it explicitly either way).
	s := &harness.Session{Workers: opts.parallel, Transport: opts.transport}
	if err := s.Validate(); err != nil {
		return usageError{fmt.Errorf("dasbench: %w", err)}
	}

	switch {
	case opts.list:
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	case opts.timeline != "":
		return showTimeline(stdout, s, opts.timeline)
	case opts.chaos:
		err = runChaos(stdout, s, opts.quick, opts.csv, opts.topo)
	case opts.topo != "":
		err = runTopo(stdout, s, opts.topo, opts.apps, opts.csv)
	default:
		err = runExperiments(stdout, s, opts)
	}
	if err != nil || !opts.census {
		return err
	}
	// With -census, the simulator's own event counters follow the reports.
	rep := s.CensusReport()
	fmt.Fprint(stdout, rep.Render())
	return writeCSV(stdout, opts.csv, rep.ID, rep)
}

// runExperiments runs the -exp selection in order, each report followed by
// its chart (unless -plot=false) and its CSV file.
func runExperiments(out io.Writer, s *harness.Session, opts *options) error {
	var selected []harness.Experiment
	if opts.exp == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(opts.exp, ",") {
			e, err := harness.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return usageError{err}
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		start := time.Now()
		rep, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		fmt.Fprint(out, rep.Render())
		if opts.plot && rep.Figure != nil {
			fmt.Fprint(out, renderPlot(rep.Figure))
		}
		if err := writeCSV(out, opts.csv, e.ID, rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%s took %.1fs wall clock; all results verified against sequential references)\n\n",
			e.ID, time.Since(start).Seconds())
	}
	return nil
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
func runChaos(out io.Writer, s *harness.Session, quick bool, csvDir, topoArg string) error {
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
		fmt.Fprint(out, rep.Render())
		if err := writeCSV(out, csvDir, "chaos", rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "(grid chaos took %.1fs wall clock; all completed runs verified against sequential references)\n",
			time.Since(start).Seconds())
		return nil
	}
	rep, err := harness.ChaosReport(s, quick)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Render())
	if err := writeCSV(out, csvDir, "chaos", rep); err != nil {
		return err
	}
	tl, err := harness.ChaosTimeline(s, "SOR", false, harness.ChaosSpec{
		Loss: 0.01, Outage: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, tl)
	fmt.Fprintf(out, "(chaos took %.1fs wall clock; all runs verified against sequential references)\n",
		time.Since(start).Seconds())
	return nil
}

// showTimeline runs one application on the 4x15 platform in both variants,
// tapping every message into a time-bucketed timeline, and prints the
// communication shape of the run (bursts, phases, saturation plateaus).
func showTimeline(out io.Writer, s *harness.Session, appName string) error {
	app, err := harness.AppByName(appName)
	if err != nil {
		return err
	}
	for _, optimized := range []bool{false, true} {
		m, tl, err := s.Timeline(s.Spec(app, cluster.DAS(4, 15), optimized))
		if err != nil {
			return err
		}
		variant := "original"
		if optimized {
			variant = "optimized"
		}
		fmt.Fprintf(out, "== %s %s on 4x15 (%.3fs virtual) ==\n", appName, variant, m.Seconds())
		fmt.Fprint(out, tl)
		fmt.Fprintln(out)
	}
	return nil
}
