package harness

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/faults"
	"albatross/internal/sim"
)

// The chaos experiments exercise the whole fault stack end-to-end: a seeded
// faults.Injector flips WAN messages at the netsim layer, the orca
// reliability layer retries and deduplicates until every application-level
// exchange completes, and the sim watchdog bounds runs that cannot recover.
// Every application must finish verified-correct under loss and outages —
// degradation shows up only as inflated virtual elapsed time.
//
// The classic sweep (loss x outage) runs on the 4x4 DAS mesh; the grid sweep
// extends it to declarative topologies and hard partitions. A partition cuts
// backbone segment 0 — the physical link between the first two backbone
// roots — in both directions; on a ring backbone the network reroutes the
// long way round, on a redundant mesh it detours, and where no alternate
// exists gateways hold traffic until the cut heals. The reliability layer
// recovers whatever the hold queues age out, so every application must still
// complete and verify — availability is lost only when a scenario never
// heals.

// ChaosSpec describes one fault scenario of the chaos sweeps; Plan derives
// the fault plan it means on a given topology.
type ChaosSpec struct {
	// Loss is the per-message WAN drop probability (applied to every
	// directed cluster pair).
	Loss float64
	// Outage, when positive, crashes cluster 1's gateway for this long
	// starting at chaosOutageStart; traffic into and out of the cluster
	// is black-holed until it restarts.
	Outage time.Duration
	// PartitionStart/PartitionDur, when PartitionDur is positive, cut
	// backbone segment 0 in both directions for the window — a hard link
	// failure the network routes around or holds traffic through.
	PartitionStart time.Duration
	PartitionDur   time.Duration
}

// chaosSeed is the fault seed of every chaos experiment.
const chaosSeed = 0xda5

// chaosOutageStart places the gateway crash early enough to hit every
// application's communication phase (the shortest 4x4 run lasts ~50ms, the
// typical one upwards of 400ms).
const chaosOutageStart = 100 * time.Millisecond

// chaosDeadline aborts chaos runs that fail to recover instead of letting
// them simulate unbounded retries. Fault-free 4x4 runs finish in under 4
// seconds of virtual time, so two minutes is pure backstop.
const chaosDeadline = 2 * time.Minute

// Plan builds the scenario's fault plan for a platform's link graph g. The
// partition window cuts g's backbone segment 0 (on the DAS mesh, the pair 0-1)
// in both directions.
func (c ChaosSpec) Plan(g *cluster.Graph) faults.Plan {
	pl := faults.Plan{Seed: chaosSeed, Default: faults.PairProbs{Drop: c.Loss}}
	if c.Outage > 0 {
		pl.Crashes = append(pl.Crashes, faults.GatewayCrash{
			Cluster: 1, Start: chaosOutageStart, Duration: c.Outage,
		})
	}
	if c.PartitionDur > 0 {
		pl.LinkDowns = faults.CutRingSegment(g, 0, c.PartitionStart, c.PartitionDur)
	}
	return pl
}

// chaosRun describes one application variant under a fault scenario: the
// scenario's plan for the platform and the chaos deadline. Senders retry
// without bound; a scenario the protocol cannot survive is caught by the
// virtual-time deadline, whose DeadlineError names the parked processes.
func (s *Session) chaosRun(app AppSpec, topo cluster.Topology, optimized bool, c ChaosSpec) RunSpec {
	spec := s.Spec(app, topo, optimized)
	g, err := topo.Graph(spec.Params)
	if err != nil {
		return spec // Exec rejects the platform with the same error
	}
	plan := c.Plan(g)
	spec.Faults, spec.Deadline = &plan, chaosDeadline
	return spec
}

// ChaosTimeline runs one application on 4x4 under the fault scenario as a
// Session.Timeline and returns the rendered timeline: traffic series in the
// standard glyph ramp, fault series (drops and outage/crash losses) in the
// distinct fault ramp, so injected chaos is visually separable from the
// traffic it perturbs.
func ChaosTimeline(s *Session, appName string, optimized bool, c ChaosSpec) (string, error) {
	app, err := AppByName(appName)
	if err != nil {
		return "", err
	}
	m, tl, err := s.Timeline(s.chaosRun(app, cluster.DAS(4, 4), optimized, c))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %s on 4x4, loss %.1f%%, %v outage (%.3fs virtual)\n%s",
		appName, variantName(optimized), c.Loss*100, c.Outage, m.Seconds(), tl), nil
}

// chaosGrid runs a whole sweep — one row per scenario, one column per
// (application, variant) — and returns each run's result and error.
func (s *Session) chaosGrid(topo cluster.Topology, scenarios []chaosScenario, apps []AppSpec, variants ...bool) ([][]Result, [][]error) {
	var specs []RunSpec
	for _, sc := range scenarios {
		for _, app := range apps {
			for _, optimized := range variants {
				specs = append(specs, s.chaosRun(app, topo, optimized, sc.spec))
			}
		}
	}
	res, errs := s.all(specs)
	cols := len(apps) * len(variants)
	return slices.Collect(slices.Chunk(res, cols)), slices.Collect(slices.Chunk(errs, cols))
}

// chaosScenario is one row of a chaos sweep.
type chaosScenario struct {
	name string
	spec ChaosSpec
}

// ChaosReport sweeps loss rate x outage duration for SOR and ASP (original
// and optimized) on the 4x4 platform and renders the degradation table:
// each cell is the run's virtual elapsed time and its slowdown over the
// fault-free baseline of the same column. quick trims the sweep to the
// smoke-test scenarios.
func ChaosReport(s *Session, quick bool) (*Report, error) {
	losses := []float64{0, 0.005, 0.01, 0.02}
	outages := []time.Duration{0, 2 * time.Second}
	if quick {
		losses = []float64{0, 0.01}
	}
	var scenarios []chaosScenario
	for _, out := range outages {
		for _, loss := range losses {
			name := fmt.Sprintf("loss %.1f%%", loss*100)
			if out > 0 {
				name += fmt.Sprintf(" + %v outage", out)
			}
			scenarios = append(scenarios, chaosScenario{name, ChaosSpec{Loss: loss, Outage: out}})
		}
	}
	t := &Table{
		ID:      "chaos",
		Title:   "Virtual elapsed time (and slowdown vs fault-free) on 4x4 under WAN faults",
		Headers: []string{"scenario"},
	}
	var apps []AppSpec
	for _, name := range []string{"SOR", "ASP"} {
		app, err := AppByName(name)
		if err != nil {
			return nil, err
		}
		apps = append(apps, app)
		t.Headers = append(t.Headers, name+" orig", name+" opt")
	}
	// Column 0 is SOR original, whose harshest scenario also supplies the
	// notes' recovery totals.
	runs, errs := s.chaosGrid(cluster.DAS(4, 4), scenarios, apps, false, true)
	var worst Result
	for i, sc := range scenarios {
		row := []string{sc.name}
		for j, res := range runs[i] {
			if err := errs[i][j]; err != nil {
				return nil, err
			}
			base := runs[0][j] // loss 0, no outage: row 0 checked its error
			cell := fmt.Sprintf("%.3fs", res.Seconds())
			if base.Elapsed > 0 {
				cell += fmt.Sprintf(" (x%.2f)", float64(res.Elapsed)/float64(base.Elapsed))
			}
			row = append(row, cell)
			if j == 0 {
				worst = res
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return &Report{
		ID:     "chaos",
		Title:  "Fault injection and recovery: degradation under WAN loss and gateway outages",
		Tables: []*Table{t},
		Notes: []string{
			fmt.Sprintf("fault seed %#x; outage crashes cluster 1's gateway at %v; all runs verified correct",
				uint64(chaosSeed), chaosOutageStart),
			fmt.Sprintf("harshest scenario (SOR orig, %s): %d WAN messages lost, %d envelope retransmissions",
				scenarios[len(scenarios)-1].name, worst.Faults.Drops+worst.Faults.CrashDrops, worst.Rel.Retransmits),
			fmt.Sprintf("reliability layer there: %d wrapped, %d acks, %d dup-dropped, %d reordered",
				worst.Rel.Wrapped, worst.Rel.Acks, worst.Rel.DupDropped, worst.Rel.OutOfOrder),
		},
	}, nil
}

// gridScenarios is the loss x outage x partition sweep. The partition
// window follows the acceptance scenario: backbone cut at t=1s, heal at
// t=3s.
func gridScenarios(quick bool) []chaosScenario {
	partition := ChaosSpec{PartitionStart: time.Second, PartitionDur: 2 * time.Second}
	all := []chaosScenario{
		{"baseline", ChaosSpec{}},
		{"loss 1%", ChaosSpec{Loss: 0.01}},
		{"loss 1% + 2s outage", ChaosSpec{Loss: 0.01, Outage: 2 * time.Second}},
		{"partition 1s..3s", partition},
		{"partition + loss 1%", ChaosSpec{Loss: 0.01, PartitionStart: partition.PartitionStart, PartitionDur: partition.PartitionDur}},
	}
	if quick {
		return []chaosScenario{all[0], all[1], all[3]}
	}
	return all
}

// unavailable classifies the run errors that count against availability
// (the run could not complete before the chaos deadline, or stalled) as
// opposed to genuine harness failures (bad topology, verification mismatch).
func unavailable(err error) (string, bool) {
	var dl *sim.DeadlineError
	if errors.As(err, &dl) {
		return "deadline", true
	}
	var dk *sim.DeadlockError
	if errors.As(err, &dk) {
		return "deadlock", true
	}
	return "", false
}

// GridChaosReport sweeps loss x outage x backbone-partition scenarios over
// all eight applications (original variants) on the given topology and
// renders three tables: an SLO-style availability/completion table (elapsed
// time per app, or the structured reason it became unavailable), the
// recovery-machinery tallies per scenario (reroutes, held and dropped
// messages, retransmissions, duplicate suppressions), and
// SOR's per-link-class degradation across scenarios.
func GridChaosReport(s *Session, name string, topo cluster.Topology, quick bool) (*Report, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	scenarios := gridScenarios(quick)

	avail := &Table{
		ID:      "grid-avail",
		Title:   "availability and completion time per application",
		Headers: []string{"scenario"},
	}
	for _, app := range Apps {
		avail.Headers = append(avail.Headers, app.Name)
	}
	avail.Headers = append(avail.Headers, "avail")
	recovery := &Table{
		ID:    "grid-recovery",
		Title: "recovery machinery engaged (summed over applications)",
		Headers: []string{"scenario", "reroutes", "held", "hold-drops",
			"retransmits", "dup-dropped"},
	}
	classes := &Table{
		ID:      "grid-classes",
		Title:   "per-link-class degradation (SOR original)",
		Headers: []string{"scenario", "class", "xmits", "busy", "mean-wait", "p99-wait"},
	}

	runs, errs := s.chaosGrid(topo, scenarios, Apps, false)
	for i, sc := range scenarios {
		row := []string{sc.name}
		up := 0
		var reroutes, held, holdDrops int64
		var retransmits, dupDropped uint64
		for j, app := range Apps {
			// A run that missed the deadline or deadlocked counts against
			// availability; its Result still tallies the recovery work done.
			res, err := runs[i][j], errs[i][j]
			reason, down := unavailable(err)
			switch {
			case err == nil:
				row = append(row, fmt.Sprintf("%.3fs", res.Seconds()))
				up++
			case down:
				row = append(row, "UNAVAIL ("+reason+")")
			default:
				return nil, err
			}
			reroutes += res.Net.Reroutes()
			held += res.Net.HeldMsgs()
			holdDrops += res.Net.HoldDrops()
			retransmits += res.Rel.Retransmits
			dupDropped += res.Rel.DupDropped
			if app.Name == "SOR" && err == nil {
				for _, cr := range res.Classes {
					classes.Rows = append(classes.Rows, []string{
						sc.name, cr.Class,
						fmt.Sprintf("%d", cr.Xmits),
						roundDur(cr.Busy),
						roundDur(cr.MeanWait),
						roundDur(cr.P99Wait),
					})
				}
			}
		}
		row = append(row, fmt.Sprintf("%d/%d", up, len(Apps)))
		avail.Rows = append(avail.Rows, row)
		recovery.Rows = append(recovery.Rows, []string{
			sc.name,
			fmt.Sprintf("%d", reroutes),
			fmt.Sprintf("%d", held),
			fmt.Sprintf("%d", holdDrops),
			fmt.Sprintf("%d", retransmits),
			fmt.Sprintf("%d", dupDropped),
		})
	}

	return &Report{
		ID:     "grid-chaos",
		Title:  fmt.Sprintf("grid-scale fault tolerance on %s (%d clusters, %d compute nodes)", name, topo.Clusters, topo.Compute()),
		Tables: []*Table{avail, recovery, classes},
		Notes: []string{
			"partition cuts backbone segment 0 (first root pair) in both directions; ring backbones reroute the long way round, redundant meshes detour, and gateways hold what cannot be routed until the cut heals",
			fmt.Sprintf("fault seed %#x; outage crashes cluster 1's gateway at %v; all completed runs verified against sequential references", uint64(chaosSeed), chaosOutageStart),
		},
	}, nil
}
