package faults

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error, "" for valid
	}{
		{"empty", Plan{}, ""},
		{"good probs", Plan{Default: PairProbs{Drop: 0.1}}, ""},
		{"certain loss", Plan{Default: PairProbs{Drop: 1}}, ""},
		{"negative prob", Plan{Default: PairProbs{Drop: -0.1}}, "outside [0, 1]"},
		{"prob over one", Plan{Default: PairProbs{Drop: 1.5}}, "outside [0, 1]"},
		{"NaN prob", Plan{Default: PairProbs{Drop: math.NaN()}}, "outside [0, 1]"},
		{"negative crash", Plan{Crashes: []GatewayCrash{{Cluster: 1, Duration: -time.Second}}}, "negative window"},
		// A window whose end overflows would wrap and never be live.
		{"crash window overflow", Plan{Crashes: []GatewayCrash{{Cluster: 1, Start: time.Millisecond, Duration: math.MaxInt64}}}, "past the last representable instant"},
		{"crash window to the last instant", Plan{Crashes: []GatewayCrash{{Cluster: 1, Start: time.Millisecond, Duration: math.MaxInt64 - time.Millisecond}}}, ""},
		{"negative crash cluster", Plan{Crashes: []GatewayCrash{{Cluster: -1, Duration: time.Second}}}, "negative cluster index"},
		{"good link-down", Plan{LinkDowns: []LinkDown{{From: 0, To: 1, Start: time.Second, Duration: time.Second}}}, ""},
		{"negative link-down window", Plan{LinkDowns: []LinkDown{{From: 0, To: 1, Duration: -time.Second}}}, "negative window"},
		{"link-down window overflow", Plan{LinkDowns: []LinkDown{{From: 0, To: 1, Start: time.Second, Duration: math.MaxInt64}}}, "past the last representable instant"},
		{"self link-down", Plan{LinkDowns: []LinkDown{{From: 2, To: 2, Duration: time.Second}}}, "not a directed cluster pair"},
		{"negative link-down index", Plan{LinkDowns: []LinkDown{{From: -1, To: 1, Duration: time.Second}}}, "not a directed cluster pair"},
		// ValidateOn, against a four-cluster ring (links 0-1, 1-2, 2-3, 3-0).
		{"crash beyond platform", Plan{Crashes: []GatewayCrash{{Cluster: 4, Duration: time.Second}}}, "beyond the platform"},
		{"link-down beyond platform", Plan{LinkDowns: []LinkDown{{From: 3, To: 4, Duration: time.Second}}}, "not a physical link"},
		{"link-down across the ring", Plan{LinkDowns: []LinkDown{{From: 0, To: 2, Duration: time.Second}}}, "not a physical link"},
		{"link-down on the closing segment", Plan{LinkDowns: []LinkDown{{From: 0, To: 3, Duration: time.Second}}}, ""},
	}
	b := cluster.NewBuilder()
	b.Roots(4, cluster.Ring, b.Class("ring", time.Millisecond, 1e6, 0), 2)
	ring, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if err == nil {
				err = tc.plan.ValidateOn(ring.WAN, ring.Clusters)
			}
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid plan rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestVerdictStreamDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Default: PairProbs{Drop: 0.2}}
	sequence := func() []bool {
		in := MustInjector(plan)
		in.Bind(2)
		var out []bool
		for i := 0; i < 500; i++ {
			out = append(out, in.WANTransit(time.Duration(i)*time.Millisecond, 0, 1, netsim.Msg{}))
		}
		return out
	}
	a, b := sequence(), sequence()
	if !slices.Equal(a, b) {
		t.Fatal("verdicts differ across identical injectors")
	}
}

func TestProbabilisticRates(t *testing.T) {
	in := MustInjector(Plan{Seed: 7, Default: PairProbs{Drop: 0.3}})
	in.Bind(2)
	const n = 20000
	for i := 0; i < n; i++ {
		in.WANTransit(time.Duration(i), 0, 1, netsim.Msg{})
	}
	c := in.Counters()
	if c.Inspected != n {
		t.Fatalf("inspected %d, want %d", c.Inspected, n)
	}
	within := func(name string, got uint64, p float64) {
		t.Helper()
		f := float64(got) / n
		if f < p*0.85 || f > p*1.15 {
			t.Fatalf("%s rate %.4f, want ~%.2f", name, f, p)
		}
	}
	within("drop", c.Drops, 0.3)
}

func TestGatewayCrashWindow(t *testing.T) {
	in := MustInjector(Plan{
		Crashes: []GatewayCrash{{Cluster: 1, Start: time.Second, Duration: time.Second}},
	})
	in.Bind(2)
	if in.GatewayDown(0, 1, netsim.Msg{}) {
		t.Fatal("down before crash")
	}
	if !in.GatewayDown(1500*time.Millisecond, 1, netsim.Msg{}) {
		t.Fatal("up during crash")
	}
	if in.GatewayDown(1500*time.Millisecond, 0, netsim.Msg{}) {
		t.Fatal("crash leaked to another cluster")
	}
	if in.GatewayDown(2*time.Second, 1, netsim.Msg{}) {
		t.Fatal("down after restart")
	}
	if got := in.Counters().CrashDrops; got != 1 {
		t.Fatalf("crash drops %d, want 1", got)
	}
}

func TestEventsEmitted(t *testing.T) {
	in := MustInjector(Plan{
		Default: PairProbs{Drop: 1},
		Crashes: []GatewayCrash{{Cluster: 0, Start: 0, Duration: time.Second}},
	})
	in.Bind(2)
	var events []Event
	in.OnEvent(func(e Event) { events = append(events, e) })
	in.GatewayDown(time.Millisecond, 0, netsim.Msg{})
	in.WANTransit(2*time.Second, 0, 1, netsim.Msg{})
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != EventCrash || events[0].To != -1 || events[0].At != time.Millisecond {
		t.Fatalf("crash event %+v", events[0])
	}
	if events[1].Kind != EventDrop || events[1].From != 0 || events[1].To != 1 {
		t.Fatalf("drop event %+v", events[1])
	}
	if EventCrash.String() != "crash" || EventKind(99).String() != "invalid" {
		t.Fatal("EventKind.String broken")
	}
}

// TestNetworkRunDeterminism drives a real network under a lossy plan and
// checks three runs agree on elapsed virtual time, dispatched events, and
// fault tallies — the acceptance property for the whole fault subsystem.
func TestNetworkRunDeterminism(t *testing.T) {
	run := func() (time.Duration, uint64, Counters) {
		e := sim.NewEngine()
		n := netsim.New(e, cluster.Topology{Clusters: 3, NodesPerCluster: 3}, cluster.DASParams())
		in := MustInjector(Plan{
			Seed:    99,
			Default: PairProbs{Drop: 0.1},
			Crashes: []GatewayCrash{{Cluster: 1, Start: 10 * time.Millisecond, Duration: 10 * time.Millisecond}},
		})
		n.SetFaultPolicy(in)
		for id := 0; id < 12; id++ { // nine compute nodes and three gateways
			n.SetHandler(cluster.NodeID(id), func(netsim.Msg) {})
		}
		for i := 0; i < 300; i++ {
			from := cluster.NodeID(i % 9)
			to := cluster.NodeID((i * 7) % 9)
			n.Send(netsim.Msg{From: from, To: to, Kind: netsim.KindData, Size: 100 + i})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		elapsed, dispatched := e.Now(), e.Dispatched()
		e.Shutdown()
		return elapsed, dispatched, in.Counters()
	}
	e1, d1, c1 := run()
	for i := 0; i < 2; i++ {
		e2, d2, c2 := run()
		if e1 != e2 || d1 != d2 || c1 != c2 {
			t.Fatalf("run %d diverged: (%v, %d, %+v) vs (%v, %d, %+v)", i+2, e1, d1, c1, e2, d2, c2)
		}
	}
	if c1.Drops == 0 || c1.CrashDrops == 0 {
		t.Fatalf("plan injected nothing interesting: %+v", c1)
	}
}

// ringGraph builds a bare r-root ring backbone graph for the partition
// helpers.
func ringGraph(t *testing.T, r int) *cluster.Graph {
	t.Helper()
	b := cluster.NewBuilder()
	cl := b.Class("backbone", time.Millisecond, cluster.Mbit(100), 0)
	b.Roots(r, cluster.Ring, cl, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo.WAN
}

func TestLinkDownWindowPredicate(t *testing.T) {
	in := MustInjector(Plan{LinkDowns: []LinkDown{
		{From: 0, To: 1, Start: time.Second, Duration: time.Second},
	}})
	cases := []struct {
		at       time.Duration
		from, to int
		want     bool
	}{
		{500 * time.Millisecond, 0, 1, false}, // before the window
		{time.Second, 0, 1, true},             // inclusive start
		{1500 * time.Millisecond, 0, 1, true},
		{2 * time.Second, 0, 1, false},         // exclusive end
		{1500 * time.Millisecond, 1, 0, false}, // reverse direction untouched
		{1500 * time.Millisecond, 0, 2, false}, // other pair untouched
	}
	for _, c := range cases {
		if got := in.LinkDown(c.at, c.from, c.to); got != c.want {
			t.Fatalf("LinkDown(%v, %d, %d) = %v, want %v", c.at, c.from, c.to, got, c.want)
		}
	}
}

// TestLinkChangesContract holds Injector.LinkChanges to the FaultPolicy
// contract the router caches on: sorted and deduplicated, both edges of every
// window present, nil without link-downs, and LinkDown constant for every
// directed link of the plan between consecutive instants.
func TestLinkChangesContract(t *testing.T) {
	for _, pl := range []Plan{{}, {Default: PairProbs{Drop: 0.5}, Crashes: []GatewayCrash{{Cluster: 1, Duration: time.Second}}}} {
		if got := MustInjector(pl).LinkChanges(); got != nil {
			t.Fatalf("plan without link-downs: LinkChanges() = %v, want nil", got)
		}
	}
	r := rng.New(35)
	for i := 0; i < 300; i++ {
		var pl Plan
		for k := 1 + r.Intn(6); k > 0; k-- {
			l := LinkDown{From: r.Intn(3), To: r.Intn(3), Start: time.Duration(r.Intn(5)) * time.Millisecond}
			if l.From == l.To {
				l.To = (l.To + 1) % 3
			}
			switch r.Intn(4) {
			case 0: // permanent: ends at the last instant
				l.Duration = math.MaxInt64 - l.Start
			case 1: // empty window: never live, still two equal edges
			default:
				l.Duration = time.Duration(1+r.Intn(4)) * time.Millisecond
			}
			pl.LinkDowns = append(pl.LinkDowns, l)
		}
		in := MustInjector(pl)
		ch := in.LinkChanges()
		for j := 1; j < len(ch); j++ {
			if ch[j] <= ch[j-1] {
				t.Fatalf("plan %+v: LinkChanges %v not strictly increasing", pl.LinkDowns, ch)
			}
		}
		for _, l := range pl.LinkDowns {
			if !slices.Contains(ch, l.Start) || !slices.Contains(ch, l.Start+l.Duration) {
				t.Fatalf("plan %+v: LinkChanges %v misses an edge of %+v", pl.LinkDowns, ch, l)
			}
		}
		// Probe each epoch at its first and last instant and in between; the
		// epoch before the first change starts at 0 (no instant is negative).
		for j := 0; j <= len(ch); j++ {
			lo, hi := time.Duration(0), time.Duration(math.MaxInt64)
			if j > 0 {
				lo = ch[j-1]
			}
			if j < len(ch) {
				hi = ch[j] - 1
			}
			if hi < lo {
				continue
			}
			for _, l := range pl.LinkDowns {
				want := in.LinkDown(lo, l.From, l.To)
				for _, at := range []time.Duration{lo + (hi-lo)/2, hi} {
					if got := in.LinkDown(at, l.From, l.To); got != want {
						t.Fatalf("plan %+v: LinkDown(%d->%d) is %v at %v but %v at %v, inside one epoch of %v",
							pl.LinkDowns, l.From, l.To, want, lo, got, at, ch)
					}
				}
			}
		}
	}
}

func TestCutRingSegment(t *testing.T) {
	g := ringGraph(t, 4)
	downs := CutRingSegment(g, 0, time.Second, time.Second)
	want := map[[2]int]bool{{0, 1}: true, {1, 0}: true}
	if len(downs) != 2 {
		t.Fatalf("segment cut produced %d windows, want 2 (both directions)", len(downs))
	}
	for _, d := range downs {
		if !want[[2]int{d.From, d.To}] {
			t.Fatalf("unexpected cut %d->%d", d.From, d.To)
		}
		if d.Start != time.Second || d.Duration != time.Second {
			t.Fatalf("cut window [%v, +%v], want [1s, +1s]", d.Start, d.Duration)
		}
	}
	// The last segment wraps around to root 0.
	downs = CutRingSegment(g, 3, 0, time.Second)
	if downs[0].From != 3 || downs[0].To != 0 {
		t.Fatalf("wrap segment cut %d->%d, want 3->0", downs[0].From, downs[0].To)
	}
}

// TestLinkDownRoutesAroundInNetwork is the faults-package end-to-end check:
// a plan-scheduled ring cut reroutes traffic the other way round without
// losing anything, and the Stats counters record the reroute.
func TestLinkDownRoutesAroundInNetwork(t *testing.T) {
	b := cluster.NewBuilder()
	cl := b.Class("backbone", time.Millisecond, cluster.Mbit(100), 0)
	b.Roots(4, cluster.Ring, cl, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{LinkDowns: CutRingSegment(topo.WAN, 0, 0, time.Hour)}
	e := sim.NewEngine()
	n := netsim.New(e, topo, cluster.DASParams())
	n.SetFaultPolicy(MustInjector(plan))
	got := 0
	n.SetHandler(2, func(netsim.Msg) { got++ })
	n.Send(netsim.Msg{From: 0, To: 2, Kind: netsim.KindData, Size: 1000})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (rerouted)", got)
	}
	if n.Stats().Reroutes() == 0 {
		t.Fatal("ring cut produced no reroutes")
	}
}

func TestMustInjectorPanicsOnBadPlan(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside [0, 1]") {
			t.Fatalf("panic %v, want the plan's error", r)
		}
	}()
	MustInjector(Plan{Default: PairProbs{Drop: 2}})
}
