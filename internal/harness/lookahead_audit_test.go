package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
)

// lookaheadAuditor records every cross-LP scheduling delta the engine's
// audit hook reports and checks it against the pair's route-derived floor.
// The hook runs concurrently on LP runner threads, so all state is behind
// one mutex; violations are collected rather than fataled so a broken floor
// reports every offending pair, not just the first.
type lookaheadAuditor struct {
	mu         sync.Mutex
	seen       uint64
	minMargin  time.Duration // tightest observed delta - floor
	violations []string
}

func (a *lookaheadAuditor) hook(sys *core.System) func(src, dst int, delta time.Duration) {
	first := true
	return func(src, dst int, delta time.Duration) {
		floor := sys.Engine.LookaheadBetween(src, dst)
		a.mu.Lock()
		defer a.mu.Unlock()
		a.seen++
		if m := delta - floor; first || m < a.minMargin {
			a.minMargin, first = m, false
		}
		if delta < floor {
			if len(a.violations) < 8 { // enough to diagnose, bounded output
				a.violations = append(a.violations,
					fmt.Sprintf("%v < floor %v for LP pair %d->%d", delta, floor, src, dst))
			}
		}
	}
}

// auditOneRun executes one sharded configuration with the cross-LP audit
// hook installed and asserts the conservativeness property the per-route
// lookahead matrix rests on: every message an LP schedules on another LP
// lies at least the directed pair's closed route floor beyond the sender's
// clock. It returns the number of cross-LP schedules observed so callers
// can require the property was actually exercised.
func auditOneRun(t *testing.T, tag string, app AppSpec, topo cluster.Topology, tr Transport, plan *faults.Plan) uint64 {
	t.Helper()
	spec := identitySpec(app, topo, false, plan)
	spec.Transport = tr
	aud := &lookaheadAuditor{}
	if _, err := execOn(t, spec, 4, func(sys *core.System, _ *faults.Injector) {
		sys.Engine.SetCrossLPAudit(aud.hook(sys))
	}); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	aud.mu.Lock()
	defer aud.mu.Unlock()
	for _, v := range aud.violations {
		t.Errorf("%s: cross-LP delta below route floor: %s", tag, v)
	}
	if aud.seen > 0 {
		t.Logf("%s: %d cross-LP schedules audited, tightest margin over floor %v", tag, aud.seen, aud.minMargin)
	}
	return aud.seen
}

// TestCrossLPLookaheadConservative is the conservativeness audit of the
// per-route lookahead matrix: on a uniform mesh, a small tiered graph, the
// 9-cluster ring and the 64-cluster tiered grid — with and without the
// gateway transport layer, and under fault degradation (loss, a gateway
// crash, a hard link cut forcing reroutes and held traffic) — every cross-LP
// schedule the network issues must clear the directed pair's closed route
// floor. Degradations and reroutes may only RAISE a route's latency, so the
// matrix built from healthy routes must stay a conservative floor throughout;
// any delta below it would let an event land inside another LP's committed
// window and silently break byte identity.
func TestCrossLPLookaheadConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("lookahead audit sweep is long in -short mode")
	}
	ring9, err := cluster.LoadTopology("../../examples/topologies/ring9.json")
	if err != nil {
		t.Fatal(err)
	}
	tiered64, err := cluster.LoadTopology("../../examples/topologies/tiered64.json")
	if err != nil {
		t.Fatal(err)
	}
	das, tiered := cluster.DAS(4, 2), identityTieredTopo(t)
	chaosPlan := func(topo cluster.Topology) *faults.Plan {
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
	platforms := []struct {
		name string
		topo cluster.Topology
		plan *faults.Plan
	}{
		{"das-4x2", das, nil},
		{"tiered", tiered, nil},
		{"ring9", ring9, nil},
		{"tiered64", tiered64, nil},
		{"das-4x2-chaos", das, chaosPlan(das)},
		{"tiered-chaos", tiered, chaosPlan(tiered)},
		{"ring9-chaos", ring9, chaosPlan(ring9)},
	}
	transports := []struct {
		name string
		tr   Transport
	}{
		{"plain", Transport{}},
		{"framed", DefaultTransport},
	}
	for _, pf := range platforms {
		for _, tr := range transports {
			var seen uint64
			for _, name := range []string{"ASP", "RA"} {
				app, err := AppByName(name)
				if err != nil {
					t.Fatal(err)
				}
				tag := pf.name + "/" + tr.name + "/" + name
				seen += auditOneRun(t, tag, app, pf.topo, tr.tr, pf.plan)
			}
			if seen == 0 {
				t.Errorf("%s/%s: no cross-LP schedules observed — audit exercised nothing", pf.name, tr.name)
			}
		}
	}
}
