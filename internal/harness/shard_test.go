package harness

import (
	"fmt"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/orca"
)

// identitySpec describes one run of the identity sweeps: with a non-nil
// fault plan, a seeded injector plus the reliability layer, so the sweeps
// also cover runs under chaos. execOn picks the engine.
func identitySpec(app AppSpec, topo cluster.Topology, optimized bool, plan *faults.Plan) RunSpec {
	spec := (&Session{}).Spec(app, topo, optimized)
	if plan != nil {
		spec.Faults, spec.Rel, spec.Deadline = plan, orca.RelConfig{RTO: 100 * time.Millisecond}, chaosDeadline
	}
	return spec
}

// execOn runs spec on the given engine shard count (0 = sequential) and fails
// the test unless the engine really has min(shards, Clusters) LPs on a
// multi-cluster platform, and none otherwise: an identity test whose shard
// count stopped reaching core.NewSystem would compare the sequential engine
// with itself and pass.
func execOn(t testing.TB, spec RunSpec, shards int, hooks ...Hook) (Result, error) {
	t.Helper()
	spec.shards = shards
	want := 0
	if shards > 1 && spec.Topo.Clusters > 1 {
		want = min(shards, spec.Topo.Clusters)
	}
	check := func(sys *core.System, _ *faults.Injector) {
		if got := len(sys.Engine.Shards()); got != want {
			t.Fatalf("%s with shards=%d: engine has %d LPs, want %d", spec, shards, got, want)
		}
	}
	return Exec(spec, append(hooks, check)...)
}

// mustExecOn is execOn failing the test on a run or verification error.
func mustExecOn(t *testing.T, spec RunSpec, shards int) Result {
	t.Helper()
	res, err := execOn(t, spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// identityTieredTopo is the non-uniform multi-tier platform of the identity
// sweep: two backbone clusters joined by a trunk link, each with one regional
// child on a slower access link, and heterogeneous cluster sizes (2,2,2,3).
// Leaf-to-leaf traffic crosses three physical links, so the sweep exercises
// multi-hop store-and-forward routing, per-class metering, and route-derived
// lookahead under sharding.
func identityTieredTopo(t *testing.T) cluster.Topology {
	t.Helper()
	b := cluster.NewBuilder()
	trunk := b.Class("trunk", 10*time.Millisecond, cluster.Mbit(6), 0)
	access := b.Class("access", 2*time.Millisecond, cluster.Mbit(20), 0)
	roots := b.Roots(2, cluster.Mesh, trunk, 2)
	b.Tier(roots, 1, access, 2, 3)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestShardedIdentityAllApps is the tentpole's acceptance test: for every
// application and variant, three repeated runs on the 4-shard engine must
// reproduce the sequential run exactly — the same virtual elapsed time, the
// same dispatched-event count, and byte-identical metrics (the material all
// reports are rendered from). Shardable apps really exercise the parallel
// engine here; the rest prove the fallback changes nothing. The sweep runs
// both on the uniform DAS mesh and on a non-uniform two-tier topology where
// cross-cluster traffic takes multi-hop routes through intermediate LPs.
func TestShardedIdentityAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite identity sweep is long in -short mode")
	}
	// chaosIdentityPlan builds the fault schedule of the chaos platforms:
	// 1% probabilistic loss, a gateway crash, and a hard trunk cut at
	// [50ms, 150ms) — so the sweep exercises the per-pair verdict streams,
	// the crash windows, and the reroute/hold machinery under sharding.
	chaosIdentityPlan := func(topo cluster.Topology) *faults.Plan {
		pl := faults.Plan{
			Seed:    chaosSeed,
			Default: faults.PairProbs{Drop: 0.01},
			Crashes: []faults.GatewayCrash{{Cluster: 1, Start: 100 * time.Millisecond, Duration: 200 * time.Millisecond}},
		}
		g, err := topo.Graph(Params)
		if err != nil {
			t.Fatal(err)
		}
		pl.LinkDowns = faults.CutRingSegment(g, 0, 50*time.Millisecond, 100*time.Millisecond)
		return &pl
	}
	das, tiered := cluster.DAS(4, 2), identityTieredTopo(t)
	platforms := []struct {
		name string
		topo cluster.Topology
		plan *faults.Plan
		reps int
	}{
		{"das-4x2", das, nil, 3},
		{"tiered", tiered, nil, 3},
		// On the DAS mesh the cut pair detours through a third cluster;
		// on the two-root tiered trunk no alternate exists, so gateways
		// hold traffic until the heal at 150ms.
		{"das-4x2-chaos", das, chaosIdentityPlan(das), 2},
		{"tiered-chaos", tiered, chaosIdentityPlan(tiered), 2},
	}
	for _, pf := range platforms {
		for _, app := range Apps {
			for _, opt := range []bool{false, true} {
				spec := identitySpec(app, pf.topo, opt, pf.plan)
				seq := mustExecOn(t, spec, 0)
				seqDump := fmt.Sprintf("%+v", seq.Metrics)
				for rep := 0; rep < pf.reps; rep++ {
					sh := mustExecOn(t, spec, 4)
					if sh.Elapsed != seq.Elapsed {
						t.Errorf("%s %s opt=%v rep %d: elapsed %v, want %v", pf.name, app.Name, opt, rep, sh.Elapsed, seq.Elapsed)
					}
					if sh.Dispatched != seq.Dispatched {
						t.Errorf("%s %s opt=%v rep %d: dispatched %d, want %d", pf.name, app.Name, opt, rep, sh.Dispatched, seq.Dispatched)
					}
					if dump := fmt.Sprintf("%+v", sh.Metrics); dump != seqDump {
						t.Errorf("%s %s opt=%v rep %d: metrics differ from sequential\n got: %s\nwant: %s",
							pf.name, app.Name, opt, rep, dump, seqDump)
					}
				}
			}
		}
	}
}

// TestShardedSequencerIdentity crosses the newly shardable applications with
// all three sequencer protocols: whatever protocol orders the broadcasts —
// central, rotating token, or migrating — a 4-LP run must reproduce the
// sequential run exactly. The protocol choice only matters to the apps that
// broadcast (TSP, ASP, IDA*, ACP), but RA and SOR run the matrix too and
// prove an installed-but-idle sequencer perturbs nothing. CI repeats this
// under the race detector to vary the LP thread schedules.
func TestShardedSequencerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("sequencer identity matrix is long in -short mode")
	}
	protocols := []func() orca.Sequencer{
		func() orca.Sequencer { return orca.NewCentralSequencer(0) },
		func() orca.Sequencer { return orca.NewRotatingSequencer() },
		func() orca.Sequencer { return orca.NewMigratingSequencer() },
	}
	for _, name := range []string{"TSP", "ASP", "IDA*", "RA", "ACP", "SOR"} {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range protocols {
			// The protocol under test replaces the application's own choice.
			app.Sequencer = func(bool) orca.Sequencer { return mk() }
			for _, opt := range []bool{false, true} {
				spec := identitySpec(app, cluster.DAS(4, 2), opt, nil)
				seq, sh := mustExecOn(t, spec, 0), mustExecOn(t, spec, 4)
				if sh.Elapsed != seq.Elapsed || sh.Dispatched != seq.Dispatched {
					t.Errorf("%s seqr=%s opt=%v: sharded (%v, %d events) != sequential (%v, %d events)",
						name, mk().Name(), opt, sh.Elapsed, sh.Dispatched, seq.Elapsed, seq.Dispatched)
				}
				if got, want := fmt.Sprintf("%+v", sh.Metrics), fmt.Sprintf("%+v", seq.Metrics); got != want {
					t.Errorf("%s seqr=%s opt=%v: metrics differ from sequential\n got: %s\nwant: %s",
						name, mk().Name(), opt, got, want)
				}
			}
		}
	}
}
