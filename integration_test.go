package albatross

import (
	"testing"
	"time"

	"albatross/internal/apps/acp"
	"albatross/internal/apps/asp"
	"albatross/internal/apps/atpg"
	"albatross/internal/apps/ida"
	"albatross/internal/apps/memo"
	"albatross/internal/apps/ra"
	"albatross/internal/apps/sor"
	"albatross/internal/apps/tsp"
	"albatross/internal/apps/water"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/harness"
	"albatross/internal/orca"
)

// smallApps wires every application with a deliberately small problem so
// the whole-suite integration matrix stays fast.
func smallApps() []harness.AppSpec {
	return []harness.AppSpec{
		{Name: "water", Build: func(sys *core.System, opt bool) func() error {
			return water.Build(sys, water.Config{N: 48, Iters: 2, Seed: 3, PairCost: 2 * time.Microsecond, DT: 1e-4}, opt)
		}},
		{Name: "tsp", Build: func(sys *core.System, opt bool) func() error {
			return tsp.Build(sys, tsp.Config{NCities: 10, Seed: 5, JobDepth: 2, NodeCost: 2 * time.Microsecond}, opt)
		}},
		{Name: "asp",
			Sequencer: func(opt bool) orca.Sequencer { return asp.Sequencer(opt) },
			Build: func(sys *core.System, opt bool) func() error {
				return asp.Build(sys, asp.Config{N: 40, Seed: 7, OpCost: time.Microsecond})
			}},
		{Name: "atpg", Build: func(sys *core.System, opt bool) func() error {
			return atpg.Build(sys, atpg.Config{Inputs: 12, Gates: 60, Tries: 8, Seed: 7, GateCost: 200 * time.Nanosecond}, opt)
		}},
		{Name: "ida", Build: func(sys *core.System, opt bool) func() error {
			return ida.Build(sys, ida.Config{Walk: 16, Seed: 4, Jobs: 32, ExpandCost: time.Microsecond}, opt)
		}},
		{Name: "ra", Build: func(sys *core.System, opt bool) func() error {
			return ra.Build(sys, ra.Config{N: 2500, Succ: 3, Span: 150, TermPct: 6, Seed: 21,
				ApplyCost: time.Microsecond, SendCost: 10 * time.Microsecond,
				NodeBatch: 8, FlushEach: 300 * time.Microsecond}, opt)
		}},
		{Name: "acp", Build: func(sys *core.System, opt bool) func() error {
			return acp.Build(sys, acp.Config{Vars: 50, Domain: 12, Degree: 6, Tightness: 65, Seed: 13,
				CheckCost: 500 * time.Nanosecond}, opt)
		}},
		{Name: "sor", Build: func(sys *core.System, opt bool) func() error {
			return sor.Build(sys, sor.Config{NX: 24, NY: 16, Omega: 1.7, Eps: 1e-4, MaxIters: 3000,
				CellCost: time.Microsecond, SkipMod: 3}, opt)
		}},
	}
}

// run executes and verifies one small application variant.
func run(t *testing.T, app harness.AppSpec, topo cluster.Topology, optimized bool, par cluster.Params) harness.Result {
	t.Helper()
	res, err := harness.Exec(harness.RunSpec{App: app, Topo: topo, Optimized: optimized, Params: par})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryAppEveryShapeEveryVariant is the full integration matrix: all
// eight applications, original and optimized, across platform shapes, each
// verified against its sequential reference.
func TestEveryAppEveryShapeEveryVariant(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 6}, {2, 3}, {3, 2}, {4, 2}}
	for _, app := range smallApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, sh := range shapes {
				for _, opt := range []bool{false, true} {
					run(t, app, cluster.DAS(sh[0], sh[1]), opt, cluster.DASParams())
				}
			}
		})
	}
}

// TestDeterministicReplayAcrossApps: identical configuration must give the
// identical virtual time and traffic, whatever the application.
func TestDeterministicReplayAcrossApps(t *testing.T) {
	for _, app := range smallApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			a := run(t, app, cluster.DAS(2, 3), true, cluster.DASParams())
			b := run(t, app, cluster.DAS(2, 3), true, cluster.DASParams())
			if a.Elapsed != b.Elapsed {
				t.Fatalf("elapsed differs across replays: %v vs %v", a.Elapsed, b.Elapsed)
			}
			if a.Net != b.Net {
				t.Fatalf("traffic differs across replays:\n%+v\n%+v", a.Net, b.Net)
			}
		})
	}
}

// TestMemoizedValuesStayReadOnly is the contract behind internal/apps/memo:
// inputs and references are solved once per Config and shared by every run,
// so no Build, worker or verifier may write through one. Each application,
// original and optimized, is built, run and verified twice on DAS 2x4; then
// every value every memo holds must still equal a fresh computation. A Build
// that relaxed the shared ASP matrix in place would fail here, not in some
// later run's digest.
func TestMemoizedValuesStayReadOnly(t *testing.T) {
	for _, app := range smallApps() {
		for _, opt := range []bool{false, true} {
			for rep := 0; rep < 2; rep++ {
				run(t, app, cluster.DAS(2, 4), opt, cluster.DASParams())
			}
		}
	}
	if err := memo.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowerNetworksNeverHelp: for every original program, degrading the
// WAN must not make the 4-cluster run faster (a basic monotonicity sanity
// check of the whole stack).
func TestSlowerNetworksNeverHelp(t *testing.T) {
	for _, app := range smallApps() {
		if app.Name == "acp" || app.Name == "sor" {
			// Convergence-path algorithms may legitimately take a different
			// number of iterations under different timing; skip the strict
			// monotonicity check for them.
			continue
		}
		app := app
		t.Run(app.Name, func(t *testing.T) {
			das := run(t, app, cluster.DAS(4, 2), false, cluster.DASParams()).Elapsed
			slow := run(t, app, cluster.DAS(4, 2), false, cluster.SlowWANParams()).Elapsed
			if slow < das {
				t.Fatalf("slower WAN finished faster: %v vs %v", slow, das)
			}
		})
	}
}

// TestHarnessExperimentsRegistered ensures the CLI surface exposes the full
// reproduction (details are tested inside internal/harness).
func TestHarnessExperimentsRegistered(t *testing.T) {
	if n := len(harness.Experiments()); n < 30 {
		t.Fatalf("only %d experiments registered", n)
	}
}
