package harness

import (
	"errors"
	"math"
	"testing"
	"time"

	"albatross/internal/apps/asp"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// planApp is ASP on a 36-vertex graph: every pivot row is a sequenced
// broadcast over the WAN, so the whole fault stack is exercised, yet a run
// is small enough to repeat hundreds of times.
var planApp = AppSpec{
	Name:      "ASP-36",
	Sequencer: func(opt bool) orca.Sequencer { return asp.Sequencer(opt) },
	Build: func(sys *core.System, _ bool) func() error {
		return asp.Build(sys, asp.Config{N: 36, Seed: 42, OpCost: 2 * time.Microsecond})
	},
}

// planDeadline bounds a run whose fault windows never heal.
const planDeadline = 10 * time.Second

// planInput reads a fuzz input a byte at a time; past its end every byte is 0.
type planInput []byte

func (in *planInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// prob decodes a probability: mostly small, sometimes large enough for three
// to sum past 1, and sometimes out of range or NaN.
func (in *planInput) prob() float64 {
	switch v := in.next(); {
	case v == 255:
		return math.NaN()
	case v >= 248:
		return -float64(v-247) / 8
	case v >= 240:
		return 1 + float64(v-239)/8
	case v >= 200:
		return float64(v-200) / 40
	default:
		return float64(v) / 2000
	}
}

func (in *planInput) probs() faults.PairProbs {
	return faults.PairProbs{Drop: in.prob(), Duplicate: in.prob(), Reorder: in.prob()}
}

// cluster decodes a cluster index, now and then negative or one the
// platform lacks.
func (in *planInput) cluster(nc int) int {
	switch v := in.next(); {
	case v >= 253:
		return -1
	case v >= 250:
		return nc
	default:
		return int(v) % nc
	}
}

// window decodes a fault window: a start within the first half second and a
// length up to half a second, or one of the corners — a negative start or
// length, a window reaching the last representable instant, and one whose end
// overflows it.
func (in *planInput) window() (start, dur time.Duration) {
	start = time.Duration(in.next()) * 2 * time.Millisecond
	if start == 255*2*time.Millisecond {
		start = -time.Millisecond
	}
	switch v := in.next(); v {
	case 255:
		dur = math.MaxInt64
	case 254:
		dur = math.MaxInt64 - start
	case 253:
		dur = -time.Millisecond
	default:
		dur = time.Duration(v) * 2 * time.Millisecond
	}
	return start, dur
}

// decodePlan turns a fuzz input into a platform (DAS 2x2 or ring9) and a
// fault plan on it: seed, default and per-pair probabilities, a reorder
// delay, gateway crashes, and link-downs on physical links or arbitrary pairs.
func decodePlan(data []byte, platforms [2]cluster.Topology, graphs [2]*cluster.Graph) (cluster.Topology, *cluster.Graph, faults.Plan) {
	in := planInput(data)
	k := in.next() & 1
	topo, g := platforms[k], graphs[k]
	nc := topo.Clusters
	plan := faults.Plan{Seed: uint64(in.next())<<8 | uint64(in.next()), Default: in.probs()}
	for n := in.next() % 4; n > 0; n-- {
		if plan.Pairs == nil {
			plan.Pairs = map[[2]int]faults.PairProbs{}
		}
		plan.Pairs[[2]int{in.cluster(nc), in.cluster(nc)}] = in.probs()
	}
	if v := in.next(); v == 255 {
		plan.ReorderDelay = -time.Millisecond
	} else {
		plan.ReorderDelay = time.Duration(v) * 200 * time.Microsecond
	}
	for n := in.next() % 3; n > 0; n-- {
		c := faults.GatewayCrash{Cluster: in.cluster(nc)}
		c.Start, c.Duration = in.window()
		plan.Crashes = append(plan.Crashes, c)
	}
	for n := in.next() % 3; n > 0; n-- {
		var l faults.LinkDown
		if v := in.next(); v < 240 {
			link := g.Links[int(v)%len(g.Links)]
			l.From, l.To = link.A, link.B
			if v&1 == 1 {
				l.From, l.To = link.B, link.A
			}
		} else {
			l.From, l.To = in.cluster(nc), in.cluster(nc)
		}
		l.Start, l.Duration = in.window()
		plan.LinkDowns = append(plan.LinkDowns, l)
	}
	return topo, g, plan
}

// planPlatforms loads the two platforms fault plans are decoded onto.
func planPlatforms(t testing.TB) ([2]cluster.Topology, [2]*cluster.Graph) {
	t.Helper()
	ring, err := cluster.LoadTopology("../../examples/topologies/ring9.json")
	if err != nil {
		t.Fatal(err)
	}
	platforms := [2]cluster.Topology{cluster.DAS(2, 2), ring}
	var graphs [2]*cluster.Graph
	for i, topo := range platforms {
		if graphs[i], err = topo.Graph(Params); err != nil {
			t.Fatal(err)
		}
	}
	return platforms, graphs
}

// checkPlan is the fault-plan contract. A rejected plan is an error from
// Validate/ValidateOn and from Exec, never a panic. An accepted plan's every
// window of positive length is live at its start, and ASP-36 runs under it on
// the sequential engine and on two LPs to success, its deadline or a reported
// deadlock — with equal elapsed time, event count and fault tallies.
func checkPlan(t testing.TB, data []byte, platforms [2]cluster.Topology, graphs [2]*cluster.Graph) {
	t.Helper()
	topo, g, plan := decodePlan(data, platforms, graphs)
	spec := (&Session{}).Spec(planApp, topo, false)
	spec.Faults, spec.Rel, spec.Deadline = &plan, chaosRelConfig(g, topo.Clusters), planDeadline
	verr := plan.Validate()
	if verr == nil {
		verr = plan.ValidateOn(g, topo.Clusters)
	}
	if verr != nil {
		if _, err := Exec(spec); err == nil {
			t.Fatalf("plan %+v rejected (%v) but Exec ran it", plan, verr)
		}
		return
	}
	in := faults.MustInjector(plan)
	in.Bind(topo.Clusters)
	for _, c := range plan.Crashes {
		if c.Duration > 0 && !in.GatewayDown(c.Start, c.Cluster, netsim.Msg{}) {
			t.Fatalf("accepted crash %+v is not live at its start", c)
		}
	}
	for _, l := range plan.LinkDowns {
		if l.Duration > 0 && !in.LinkDown(l.Start, l.From, l.To) {
			t.Fatalf("accepted link-down %+v is not live at its start", l)
		}
	}
	var res [2]Result
	for i, shards := range []int{0, 2} {
		r, err := execOn(t, spec, shards)
		var dl *sim.DeadlineError
		var dk *sim.DeadlockError
		if err != nil && !errors.As(err, &dl) && !errors.As(err, &dk) {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		res[i] = r
	}
	if res[0].Elapsed != res[1].Elapsed || res[0].Dispatched != res[1].Dispatched || res[0].Faults != res[1].Faults {
		t.Fatalf("plan %+v: sequential %v/%d events/%+v, sharded %v/%d events/%+v", plan,
			res[0].Elapsed, res[0].Dispatched, res[0].Faults, res[1].Elapsed, res[1].Dispatched, res[1].Faults)
	}
}

// planSeeds are hand-written inputs for the corners: the empty plan on each
// platform, lossy and duplicating defaults, a reorder without its delay, a
// NaN probability, per-pair overrides, a crash, a link cut, and the windows
// that reach or overflow the last representable instant.
var planSeeds = [][]byte{
	{0},
	{1},
	{0, 0, 7, 100, 40, 0, 0, 0, 0}, // DAS: 5% drop, 2% duplicate
	{1, 0, 9, 60, 0, 60, 0, 5, 0},  // ring9: drop and reorder, 1ms delay
	{0, 0, 1, 0, 0, 60, 0, 0, 0},   // reorder without a delay
	{1, 0, 1, 255, 0, 0},           // NaN drop probability
	{0, 0, 2, 0, 0, 0, 2, 0, 1, 20, 0, 0, 1, 0, 230, 0, 0, 0}, // pair overrides: 1% and 75% drop
	{0, 0, 2, 0, 0, 0, 1, 1, 0, 230, 230, 0, 0},               // a pair's probabilities sum past 1
	{0, 0, 3, 0, 0, 0, 0, 0, 1, 1, 10, 100},                   // crash cluster 1 at 20ms for 200ms
	{1, 0, 4, 0, 0, 0, 0, 0, 0, 1, 0, 5, 250},                 // ring9: cut link 0 at 10ms for 500ms
	{0, 0, 5, 0, 0, 0, 0, 0, 1, 1, 0, 255},                    // crash from 0 to the end of time
	{0, 0, 5, 0, 0, 0, 0, 0, 1, 1, 1, 255},                    // crash whose end overflows
	{1, 0, 6, 0, 0, 0, 0, 0, 1, 4, 30, 254},                   // crash to the last instant
	{1, 0, 7, 0, 0, 0, 0, 0, 0, 1, 3, 1, 255},                 // link-down whose end overflows
	{1, 0, 8, 0, 0, 0, 0, 0, 0, 1, 250, 0, 4, 0, 10},          // link-down between non-adjacent clusters
}

func FuzzPlan(f *testing.F) {
	for _, s := range planSeeds {
		f.Add(s)
	}
	platforms, graphs := planPlatforms(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlan(t, data, platforms, graphs)
	})
}

// TestPlanContractRandomInputs runs the fuzz target's check over its seeds
// and a thousand generated inputs, so the default suite covers more than
// hand-picked plans.
func TestPlanContractRandomInputs(t *testing.T) {
	platforms, graphs := planPlatforms(t)
	for _, s := range planSeeds {
		checkPlan(t, s, platforms, graphs)
	}
	r := rng.New(29)
	for i := 0; i < 1000; i++ {
		data := make([]byte, 4+r.Intn(40))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		checkPlan(t, data, platforms, graphs)
	}
}
