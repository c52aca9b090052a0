package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/sim"
)

// ring9 loads the partition-demo topology: a single 9-root backbone ring
// with no redundant links, so any segment cut forces either a reroute the
// long way round or a hold at the gateway.
func ring9(t *testing.T) cluster.Topology {
	t.Helper()
	topo, err := cluster.LoadTopology("../../examples/topologies/ring9.json")
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestGridPartitionHealAllApps is the tentpole's acceptance scenario:
// backbone partition at t=1s, heal at t=3s, and all eight applications
// complete byte-deterministically — the sequential and 3-shard runs produce
// identical metrics, and the routing layer visibly worked around the cut.
func TestGridPartitionHealAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("grid partition sweep is long in -short mode")
	}
	topo := ring9(t)
	spec := ChaosSpec{PartitionStart: time.Second, PartitionDur: 2 * time.Second}
	var rerouted, held int64
	for _, app := range Apps {
		run := (&Session{}).chaosRun(app, topo, false, spec)
		seq := mustExecOn(t, run, 0)
		if seq.Elapsed <= time.Second {
			t.Errorf("%s finished at %v, before the partition even started", app.Name, seq.Elapsed)
		}
		rerouted += seq.Net.Reroutes()
		held += seq.Net.HeldMsgs()
		sh := mustExecOn(t, run, 3)
		if got, want := fmt.Sprintf("%+v", sh.Metrics), fmt.Sprintf("%+v", seq.Metrics); got != want {
			t.Errorf("%s: sharded partition run differs from sequential\n got: %s\nwant: %s", app.Name, got, want)
		}
		if sh.Rel != seq.Rel {
			t.Errorf("%s: sharded rel stats %+v, sequential %+v", app.Name, sh.Rel, seq.Rel)
		}
	}
	if rerouted+held == 0 {
		t.Error("no traffic was rerouted or held across the 2s backbone cut; the partition never bit")
	}
}

// TestGridPartitionNeverHeals pins the failure mode of a permanent
// partition: with both ring segments around cluster 0 cut forever, its
// traffic is held, aged out with counted drops, retransmitted without end —
// and the run terminates with a structured DeadlineError instead of
// hanging, naming the parked processes.
func TestGridPartitionNeverHeals(t *testing.T) {
	topo := ring9(t)
	plan := faults.Plan{LinkDowns: append(
		faults.CutRingSegment(topo.WAN, 0, 0, time.Hour),
		faults.CutRingSegment(topo.WAN, len(topo.WAN.Roots())-1, 0, time.Hour)...,
	)}
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	spec := (&Session{}).Spec(app, topo, false)
	spec.Faults, spec.Deadline = &plan, 20*time.Second
	res, err := Exec(spec)
	var dl *sim.DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want DeadlineError (isolated cluster must not hang)", err)
	}
	if len(dl.Parked) == 0 {
		t.Fatal("DeadlineError names no parked process")
	}
	if res.Net.HeldMsgs() == 0 || res.Net.HoldDrops() == 0 {
		t.Fatalf("held=%d drops=%d; unroutable traffic should be held then dropped with a verdict",
			res.Net.HeldMsgs(), res.Net.HoldDrops())
	}
	if res.Rel.Retransmits == 0 {
		t.Fatal("ARQ never retransmitted across the permanent partition")
	}
}

// TestExecRejectsPlanOffThePlatform: a fault plan naming a cluster the
// platform lacks, or a link-down that is no physical link of its graph, would
// be silently inert; Exec returns an error for it on the mesh shorthand and on
// a declared graph alike, and for a platform chaosRun could not plan on.
func TestExecRejectsPlanOffThePlatform(t *testing.T) {
	app, err := AppByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	hour := func(from, to int) []faults.LinkDown {
		return []faults.LinkDown{{From: from, To: to, Duration: time.Hour}}
	}
	cases := []struct {
		name string
		topo cluster.Topology
		plan faults.Plan
		want string
	}{
		{"mesh link-down beyond", cluster.DAS(4, 2), faults.Plan{LinkDowns: hour(0, 4)}, "not a physical link"},
		{"mesh crash beyond", cluster.DAS(4, 2), faults.Plan{Crashes: []faults.GatewayCrash{{Cluster: 4, Duration: time.Hour}}}, "beyond the platform"},
		{"ring link-down across", ring9(t), faults.Plan{LinkDowns: hour(0, 2)}, "not a physical link"},
		{"ring crash beyond", ring9(t), faults.Plan{Crashes: []faults.GatewayCrash{{Cluster: 9, Duration: time.Hour}}}, "beyond the platform"},
	}
	for _, tc := range cases {
		spec := (&Session{}).Spec(app, tc.topo, false)
		spec.Faults = &tc.plan
		if _, err := Exec(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	bad := (&Session{}).chaosRun(app, cluster.DAS(0, 2), false, ChaosSpec{Loss: 0.01})
	if _, err := Exec(bad); err == nil || !strings.Contains(err.Error(), "Clusters must be positive") {
		t.Errorf("invalid platform: err = %v", err)
	}
}

// TestReportsRejectInvalidPlatform: a report over a platform that is not
// one, or a speedup whose run fails, is an error naming the shape.
func TestReportsRejectInvalidPlatform(t *testing.T) {
	s := &Session{}
	noop := AppSpec{Name: "noop", Build: func(*core.System, bool) func() error { return func() error { return nil } }}
	if _, err := TopoReport(s, cluster.DAS(0, 2), []AppSpec{noop}); err == nil {
		t.Error("topology report on 0 clusters")
	}
	if _, err := GridChaosReport(s, "none", cluster.DAS(0, 2), true); err == nil {
		t.Error("grid chaos report on 0 clusters")
	}
	if _, _, err := s.Speedups(s.Spec(noop, cluster.DAS(2, 0), false)); err == nil || !strings.Contains(err.Error(), "NodesPerCluster") {
		t.Errorf("speedup of a run on 2x0: err = %v", err)
	}
}

// TestUnavailableClassifiesRunErrors: a run cut at its deadline or stalled
// in a deadlock counts against availability; any other error is a failure.
func TestUnavailableClassifiesRunErrors(t *testing.T) {
	for _, tc := range []struct {
		err    error
		reason string
		down   bool
	}{
		{fmt.Errorf("run: %w", &sim.DeadlineError{}), "deadline", true},
		{&sim.DeadlockError{}, "deadlock", true},
		{errors.New("verification mismatch"), "", false},
	} {
		if reason, down := unavailable(tc.err); reason != tc.reason || down != tc.down {
			t.Errorf("%v: (%q, %v), want (%q, %v)", tc.err, reason, down, tc.reason, tc.down)
		}
	}
}

// TestGridScenariosQuickIsASubset: the quick grid sweep keeps the baseline,
// 1 % loss and the partition of the full sweep, in its order.
func TestGridScenariosQuickIsASubset(t *testing.T) {
	var full []string
	for _, sc := range gridScenarios(false) {
		full = append(full, sc.name)
	}
	var quick []string
	for _, sc := range gridScenarios(true) {
		quick = append(quick, sc.name)
	}
	if len(full) != 5 || !slices.Equal(quick, []string{full[0], full[1], full[3]}) {
		t.Fatalf("full sweep %q, quick %q", full, quick)
	}
}

// TestGridChaosReportQuick renders the grid sweep end-to-end on ring9.
func TestGridChaosReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("grid chaos sweep is long in -short mode")
	}
	rep, err := GridChaosReport(&Session{}, "ring9", ring9(t), true)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"baseline", "loss 1%", "partition 1s..3s",
		"8/8", "reroutes", "hold-drops", "backbone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if csv := rep.CSV(); !strings.Contains(csv, "scenario,Water") {
		t.Fatalf("CSV header malformed:\n%s", csv)
	}
}
