// Package faults builds deterministic wide-area fault injectors for the
// simulated network. A Plan declares what can go wrong — a per-message drop
// probability, gateway crash windows and link-down windows: the failures a
// TCP-based WAN library exposes to an application — and an Injector executes
// the plan as a netsim.FaultPolicy. WAN quality is not a fault: it is
// netsim.Network.SetWANProfile's alone.
//
// Determinism is the point: the injector draws every probabilistic verdict
// from a splitmix64 stream derived from (Plan.Seed, source cluster,
// destination cluster), so a directed pair's verdict sequence depends only
// on how many messages that pair has sent — never on how traffic from
// different pairs interleaves. The sharded engine inspects each pair's
// messages on the source cluster's LP in that LP's deterministic order, so
// the same (seed, plan, workload) loses the exact same messages at the
// exact same virtual instants whether the engine runs sequentially or
// sharded. Scheduled faults (crashes and link-downs) are pure functions of
// virtual time and consume no randomness at all.
package faults

import (
	"fmt"
	"math"
	"slices"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/rng"
)

// PairProbs are the per-message fault probabilities of every directed
// cluster pair. While Drop is positive, each message entering the WAN draws
// one uniform variate from its pair's stream.
type PairProbs struct {
	Drop float64 // message silently lost at the sending gateway
}

// LinkDown is a scheduled hard failure of one directed WAN link: for
// [Start, Start+Duration) the link From→To carries nothing. A down link is
// visible to routing: the network reroutes around it where the topology has
// an alternate path (ring second direction, mesh detour) and holds traffic at
// the gateway until the link heals where it does not.
// Cut both directions to fail a physical link entirely; cut every link
// around a cluster to partition it (see CutRingSegment).
type LinkDown struct {
	From, To int
	Start    time.Duration
	Duration time.Duration
}

// GatewayCrash takes one cluster's gateway down for [Start, Start+Duration):
// every intercluster message that would traverse it — outbound or inbound —
// is lost. The gateway restarts (fault-free) at Start+Duration.
type GatewayCrash struct {
	Cluster  int
	Start    time.Duration
	Duration time.Duration
}

// Plan is a complete declarative fault schedule for one run.
type Plan struct {
	// Seed drives the probabilistic verdicts. Two runs with equal seeds,
	// plans and workloads observe identical fault sequences.
	Seed uint64

	// Default applies to every directed cluster pair.
	Default PairProbs

	Crashes []GatewayCrash

	// LinkDowns are hard link-failure windows the network routes around
	// (or holds traffic through). See CutRingSegment for deriving a
	// partition scenario from a topology graph.
	LinkDowns []LinkDown
}

// Validate rejects plans whose execution would be meaningless or corrupting:
// a drop probability outside [0,1], negative windows, or windows ending past
// the last representable instant.
func (pl Plan) Validate() error {
	if p := pl.Default.Drop; !(p >= 0 && p <= 1) {
		return fmt.Errorf("faults: default drop probability %g outside [0, 1]", p)
	}
	for _, c := range pl.Crashes {
		if err := checkWindow(fmt.Sprintf("gateway crash of cluster %d", c.Cluster), c.Start, c.Duration); err != nil {
			return err
		}
		if c.Cluster < 0 {
			return fmt.Errorf("faults: gateway crash has negative cluster index %d", c.Cluster)
		}
	}
	for _, l := range pl.LinkDowns {
		if err := checkWindow(fmt.Sprintf("link-down %d->%d", l.From, l.To), l.Start, l.Duration); err != nil {
			return err
		}
		if l.From < 0 || l.To < 0 || l.From == l.To {
			return fmt.Errorf("faults: link-down %d->%d is not a directed cluster pair", l.From, l.To)
		}
	}
	return nil
}

// checkWindow rejects a fault window [start, start+dur) that is negative or
// ends past the last representable instant: start+dur would wrap, and the
// window would never be live.
func checkWindow(what string, start, dur time.Duration) error {
	if dur < 0 || start < 0 {
		return fmt.Errorf("faults: %s has negative window [%v, +%v]", what, start, dur)
	}
	if dur > math.MaxInt64-start {
		return fmt.Errorf("faults: %s has window [%v, +%v] ending past the last representable instant", what, start, dur)
	}
	return nil
}

// ValidateOn rejects a plan that does not fit the platform it is to run on:
// a cluster index the platform does not have, or a link-down naming a
// directed pair that is not a physical link of g. The network consults the
// policy about real gateways and hops only, so such an entry would be
// silently inert.
func (pl Plan) ValidateOn(g *cluster.Graph, nclusters int) error {
	for _, c := range pl.Crashes {
		if c.Cluster >= nclusters {
			return fmt.Errorf("faults: gateway crash names cluster %d beyond the platform's %d", c.Cluster, nclusters)
		}
	}
	if len(pl.LinkDowns) == 0 {
		return nil
	}
	linked := make(map[[2]int]bool, 2*len(g.Links))
	for _, l := range g.Links {
		linked[[2]int{l.A, l.B}] = true
		linked[[2]int{l.B, l.A}] = true
	}
	for _, l := range pl.LinkDowns {
		if !linked[[2]int{l.From, l.To}] {
			return fmt.Errorf("faults: link-down %d->%d is not a physical link of the platform", l.From, l.To)
		}
	}
	return nil
}

// CutRingSegment derives the LinkDown windows that sever ring segment seg —
// the physical link between the seg'th root and its successor on the
// backbone ring — in both directions for [start, start+dur). On a
// single-ring backbone this partitions nothing by itself (traffic goes the
// long way round); cut two segments to isolate the roots between them.
func CutRingSegment(g *cluster.Graph, seg int, start, dur time.Duration) []LinkDown {
	roots := g.Roots()
	r := len(roots)
	a, b := int(roots[seg%r]), int(roots[(seg+1)%r])
	return []LinkDown{
		{From: a, To: b, Start: start, Duration: dur},
		{From: b, To: a, Start: start, Duration: dur},
	}
}

// EventKind classifies an injected fault occurrence.
type EventKind uint8

const (
	// EventDrop is a probabilistic message loss.
	EventDrop EventKind = iota
	// EventCrash is a loss to a crashed gateway.
	EventCrash
	numEventKinds
)

var eventKindNames = [numEventKinds]string{"drop", "crash"}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "invalid"
}

// Event records one injected fault, for tracing. From/To are cluster
// indices; To is -1 for gateway crashes (the loss is at one gateway).
type Event struct {
	At       time.Duration
	Kind     EventKind
	From, To int
}

// Counters tallies what the injector actually did over a run.
type Counters struct {
	Inspected  uint64 // WAN messages ruled on
	Drops      uint64 // probabilistic losses
	CrashDrops uint64 // losses to crashed gateways (either side)
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Inspected += o.Inspected
	c.Drops += o.Drops
	c.CrashDrops += o.CrashDrops
}

// Injector executes a Plan as a netsim.FaultPolicy.
//
// Shard safety: all mutable state is partitioned by cluster. The decision
// stream for directed pair (cs, cd) lives in streams[cs][cd] and is only
// touched by WANTransit, which the network always runs on cs's LP; the
// counters for cluster c live in ctr[c] and are only touched by calls the
// network runs on c's LP. Bind sizes both outer slices before the run, so
// concurrent LPs never reallocate them; an injector must be bound before it
// rules on anything.
type Injector struct {
	plan    Plan
	streams [][]uint64 // [source][dest] splitmix64 decision streams
	ctr     []Counters // per-cluster tallies

	// onEvent, if set, observes every injected fault as it happens. It runs
	// on the simulation's send path — under the sharded engine that means
	// the LP inspecting the message, concurrently with other LPs — and must
	// be cheap and side-effect-pure with respect to the simulation
	// (tracing only; synchronize externally if it aggregates).
	onEvent func(Event)
}

// NewInjector validates the plan and builds its injector.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan}, nil
}

// MustInjector is NewInjector for statically-known-good plans.
func MustInjector(plan Plan) *Injector {
	in, err := NewInjector(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// OnEvent installs a fault observer (nil removes it).
func (in *Injector) OnEvent(fn func(Event)) { in.onEvent = fn }

// Counters returns the tallies so far, summed over clusters. Under the
// sharded engine call it only while the simulation is stopped.
func (in *Injector) Counters() Counters {
	var tot Counters
	for i := range in.ctr {
		tot.Add(in.ctr[i])
	}
	return tot
}

// Bind sizes the injector's per-cluster state for a topology of nclusters
// clusters, starting its streams and counters afresh. netsim.SetFaultPolicy
// calls it; the sizing is what lets concurrent LPs index their own rows
// without reallocation.
func (in *Injector) Bind(nclusters int) {
	in.streams = make([][]uint64, nclusters)
	in.ctr = make([]Counters, nclusters)
}

// pairSeed derives the decision-stream seed for directed pair (cs, cd): the
// plan seed is perturbed by both endpoints and scrambled once so adjacent
// pairs land in unrelated parts of the splitmix64 sequence.
func pairSeed(seed uint64, cs, cd int) uint64 {
	s := seed ^ uint64(cs+1)*0x9E3779B97F4A7C15 ^ uint64(cd+1)*0xBF58476D1CE4E5B9
	return rng.SplitMix64(&s)
}

// stream returns the decision stream for directed pair (cs, cd). A source
// cluster's row materializes on its first probabilistic verdict, so a grid
// pays only for the clusters that send; the source cluster's LP seeds every
// entry at once, so a row's seeds never change after creation.
func (in *Injector) stream(cs, cd int) *uint64 {
	row := in.streams[cs]
	if row == nil {
		row = make([]uint64, len(in.streams))
		for j := range row {
			row[j] = pairSeed(in.plan.Seed, cs, j)
		}
		in.streams[cs] = row
	}
	return &row[cd]
}

// roll draws the next uniform variate in [0, 1) from one pair's stream.
func roll(state *uint64) float64 {
	return float64(rng.SplitMix64(state)>>11) / (1 << 53)
}

func (in *Injector) emit(at time.Duration, k EventKind, from, to int) {
	if in.onEvent != nil {
		in.onEvent(Event{At: at, Kind: k, From: from, To: to})
	}
}

func inWindow(at, start, dur time.Duration) bool {
	return at >= start && at < start+dur
}

// WANTransit implements netsim.FaultPolicy: while the drop probability is
// positive, one variate from the pair's stream decides drop or deliver.
func (in *Injector) WANTransit(at time.Duration, cs, cd int, m netsim.Msg) (drop bool) {
	ctr := &in.ctr[cs]
	ctr.Inspected++
	p := in.plan.Default.Drop
	if p == 0 || roll(in.stream(cs, cd)) >= p {
		return false
	}
	ctr.Drops++
	in.emit(at, EventDrop, cs, cd)
	return true
}

// GatewayDown implements netsim.FaultPolicy. Each true answer is one lost
// message, tallied as a crash drop.
func (in *Injector) GatewayDown(at time.Duration, c int, m netsim.Msg) bool {
	for _, cr := range in.plan.Crashes {
		if cr.Cluster == c && inWindow(at, cr.Start, cr.Duration) {
			in.ctr[c].CrashDrops++
			in.emit(at, EventCrash, c, -1)
			return true
		}
	}
	return false
}

// LinkDown implements netsim.FaultPolicy: it reports whether the
// directed link from→to is inside any scheduled failure window at virtual
// time at. Pure function of its arguments — routing consults it from
// multiple LPs concurrently.
func (in *Injector) LinkDown(at time.Duration, from, to int) bool {
	for _, l := range in.plan.LinkDowns {
		if l.From == from && l.To == to && inWindow(at, l.Start, l.Duration) {
			return true
		}
	}
	return false
}

// LinkChanges implements netsim.FaultPolicy: the sorted, deduplicated
// instants at which some window of the plan opens or closes (Start and
// Start+Duration). LinkDown is constant between consecutive instants, since
// inWindow flips only at a window edge. Nil when the plan cuts no link, which
// keeps the network on its static routing path.
func (in *Injector) LinkChanges() []time.Duration {
	if len(in.plan.LinkDowns) == 0 {
		return nil
	}
	at := make([]time.Duration, 0, 2*len(in.plan.LinkDowns))
	for _, l := range in.plan.LinkDowns {
		at = append(at, l.Start, l.Start+l.Duration)
	}
	slices.Sort(at)
	return slices.Compact(at)
}

var _ netsim.FaultPolicy = (*Injector)(nil)
