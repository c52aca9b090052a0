// Package atpg implements the Automatic Test Pattern Generation application
// of the paper (Section 4.4): computing a set of test patterns for a
// combinational circuit that together detect (most of) its single stuck-at
// faults. The gates' faults are statically partitioned over the processors,
// so the program computes almost independently; the only communication is
// the bookkeeping of how many test patterns were generated and how many
// faults they cover.
//
// Original program: every processor updates the shared statistics object
// with an RPC each time it generates a new pattern.
//
// Optimized program (the paper's all-to-one cluster reduction): each
// processor accumulates its counts locally, the processors of one cluster
// combine their totals, and a single RPC per cluster delivers the sum —
// intercluster communication drops to one message per cluster.
package atpg

import (
	"fmt"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/core"
	"albatross/internal/orca"
	"albatross/internal/rng"
)

// Config describes one ATPG problem.
type Config struct {
	Inputs   int           // primary inputs of the circuit
	Gates    int           // internal gates
	Tries    int           // random patterns tried per fault before giving up
	Seed     uint64        // circuit + pattern seed
	GateCost time.Duration // virtual CPU time per gate evaluation
}

// Default returns the scaled-down benchmark circuit.
func Default() Config {
	return Config{Inputs: 24, Gates: 600, Tries: 24, Seed: 7, GateCost: 250 * time.Nanosecond}
}

// gate kinds
const (
	gAnd = iota
	gOr
	gNand
	gNor
	gXor
	gNot
	numKinds
)

// gate reads one or two earlier signals. Signals 0..Inputs-1 are the primary
// inputs; signal Inputs+i is gate i's output.
type gate struct {
	kind byte
	a, b int32
}

// Circuit is a random combinational circuit.
type Circuit struct {
	cfg   Config
	gates []gate
}

// circuitFor is the circuit for cfg, generated once per Config. A Circuit is
// read-only after generation — all evaluation state lives in a Scratch — so
// every run and the reference share one.
var circuitFor = memo.Of(NewCircuit)

// NewCircuit generates the deterministic random circuit for cfg.
func NewCircuit(cfg Config) *Circuit {
	r := rng.New(cfg.Seed)
	gs := make([]gate, cfg.Gates)
	for i := range gs {
		avail := cfg.Inputs + i
		gs[i] = gate{
			kind: byte(r.Intn(numKinds)),
			a:    int32(r.Intn(avail)),
			b:    int32(r.Intn(avail)),
		}
	}
	return &Circuit{cfg: cfg, gates: gs}
}

// Fault is a single stuck-at fault on a gate output.
type Fault struct {
	Gate    int
	StuckAt byte // 0 or 1
}

// Faults enumerates all 2*Gates faults.
func (c *Circuit) Faults() []Fault {
	fs := make([]Fault, 0, 2*len(c.gates))
	for g := range c.gates {
		fs = append(fs, Fault{Gate: g, StuckAt: 0}, Fault{Gate: g, StuckAt: 1})
	}
	return fs
}

// Outputs reports how many of the last gate signals are primary outputs.
func (c *Circuit) Outputs() int {
	o := len(c.gates) / 10
	if o < 8 {
		o = 8
	}
	if o > len(c.gates) {
		o = len(c.gates)
	}
	return o
}

// Scratch holds one evaluator's reusable state: the signal buffer filled by
// every simulation and the per-fault pattern generator. Reused across a loop
// of searches it saves one signal vector per gate-level simulation. A
// Scratch serves one evaluation at a time and must not be shared between
// concurrent ones.
type Scratch struct {
	vals []byte
	r    *rng.Rand
}

// NewScratch returns scratch buffers sized for this circuit.
func (c *Circuit) NewScratch() *Scratch {
	return &Scratch{vals: make([]byte, c.cfg.Inputs+len(c.gates)), r: rng.New(0)}
}

// eval simulates the circuit on the input pattern, in s's signal buffer; if
// faultGate >= 0, that gate's output is stuck at stuckAt. It returns a hash
// of the primary outputs (the last Outputs gate signals). Every signal slot
// is overwritten before it is read, so no clearing is needed between calls.
func (c *Circuit) eval(s *Scratch, pattern uint64, faultGate int, stuckAt byte) uint64 {
	n := c.cfg.Inputs + len(c.gates)
	vals := s.vals
	for i := 0; i < c.cfg.Inputs; i++ {
		vals[i] = byte((pattern >> i) & 1)
	}
	for i, g := range c.gates {
		a, b := vals[g.a], vals[g.b]
		var v byte
		switch g.kind {
		case gAnd:
			v = a & b
		case gOr:
			v = a | b
		case gNand:
			v = 1 - a&b
		case gNor:
			v = 1 - a | b
		case gXor:
			v = a ^ b
		case gNot:
			v = 1 - a
		}
		if i == faultGate {
			v = stuckAt
		}
		vals[c.cfg.Inputs+i] = v
	}
	var sig uint64
	for i := n - c.Outputs(); i < n; i++ {
		sig = sig<<1 | uint64(vals[i])
		if i%53 == 0 {
			sig *= 0x9e3779b97f4a7c15 // fold long output vectors
		}
	}
	return sig
}

// TestFault searches for a pattern detecting f, trying cfg.Tries
// deterministic pseudo-random patterns, with s's buffers. It returns the
// pattern, whether one was found, and the number of gate evaluations spent.
func (c *Circuit) TestFault(s *Scratch, f Fault) (pattern uint64, found bool, evals int64) {
	s.r.Seed(c.cfg.Seed ^ rng.Hash64(uint64(f.Gate)*2+uint64(f.StuckAt)))
	for t := 0; t < c.cfg.Tries; t++ {
		pat := s.r.Uint64()
		good := c.eval(s, pat, -1, 0)
		bad := c.eval(s, pat, f.Gate, f.StuckAt)
		evals += int64(2 * len(c.gates))
		if good != bad {
			return pat, true, evals
		}
	}
	return 0, false, evals
}

// Result is the statistic the program reports.
type Result struct {
	Patterns int // test patterns generated
	Covered  int // faults covered by them
}

// Sequential is the reference result the verifier compares against, solved
// once per Config.
var Sequential = memo.Of(sequential)

// sequential runs the reference computation.
func sequential(cfg Config) Result {
	c := circuitFor(cfg)
	s := c.NewScratch()
	var res Result
	for _, f := range c.Faults() {
		if _, ok, _ := c.TestFault(s, f); ok {
			res.Patterns++
			res.Covered++
		}
	}
	return res
}

// faultTest is what a worker learns from one fault's pattern search.
type faultTest struct {
	found bool
	evals int64
}

// testsFor holds each fault's pattern search, in Faults order, computed once
// per Config on every core: a search depends only on the circuit, so a
// worker's test of a fault is a table read plus the virtual time it charges.
var testsFor = memo.Of(tests)

// tests runs every fault's pattern search, each with its own scratch.
func tests(cfg Config) []faultTest {
	c := circuitFor(cfg)
	faults := c.Faults()
	return memo.Each(len(faults), func(i int) faultTest {
		_, found, evals := c.TestFault(c.NewScratch(), faults[i])
		return faultTest{found, evals}
	})
}

// statsState is the shared statistics object.
type statsState struct{ patterns, covered int }

func addOp(dp, dc int) orca.Op {
	return orca.Op{Name: "AddStats", ArgBytes: 16, ResBytes: 4,
		Apply: func(s any) any {
			st := s.(*statsState)
			st.patterns += dp
			st.covered += dc
			return nil
		}}
}

// Build sets up the parallel ATPG run. optimized selects local accumulation
// with per-cluster reduction instead of one RPC per generated pattern.
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	table := testsFor(cfg)
	p := sys.Topo.Compute()
	topo := sys.Topo

	stats := sys.RTS.NewObject("atpg-stats", 0, &statsState{})
	final := &statsState{}

	// clusterAgg collects each cluster's totals at the cluster's first node
	// before one RPC ships them to the statistics owner (optimized mode).
	type aggState struct {
		patterns, covered, seen int
	}
	aggs := make([]*aggState, topo.Clusters)
	for i := range aggs {
		aggs[i] = &aggState{}
	}
	aggObjs := make([]*orca.Object, topo.Clusters)
	if optimized {
		for cl := 0; cl < topo.Clusters; cl++ {
			aggObjs[cl] = sys.RTS.NewObject(fmt.Sprintf("atpg-agg-%d", cl), topo.Node(cl, 0), aggs[cl])
		}
	}

	sys.SpawnWorkers("atpg", func(w *core.Worker) {
		i := w.Rank()
		myPatterns, myCovered := 0, 0
		for fi := i; fi < len(table); fi += p {
			t := table[fi]
			w.Compute(time.Duration(t.evals) * cfg.GateCost)
			if !t.found {
				continue
			}
			myCovered++
			myPatterns++
			if !optimized {
				// One RPC to the shared object per generated pattern.
				w.Invoke(stats, addOp(1, 1))
			}
		}
		if optimized {
			// First reduce within the cluster, then one RPC per cluster.
			done := w.Invoke(aggObjs[w.Cluster()], orca.Op{
				Name: "ClusterAdd", ArgBytes: 16, ResBytes: 4,
				Apply: func(s any) any {
					st := s.(*aggState)
					st.patterns += myPatterns
					st.covered += myCovered
					st.seen++
					return st.seen == topo.Size(w.Cluster())
				}})
			if done.(bool) {
				// The last contributor of the cluster ships the total.
				ag := aggs[w.Cluster()]
				w.Invoke(stats, addOp(ag.patterns, ag.covered))
			}
		}
	})

	return func() error {
		want := Sequential(cfg)
		*final = *stats.State().(*statsState)
		if final.patterns != want.Patterns || final.covered != want.Covered {
			return fmt.Errorf("atpg: got %d/%d, want %d/%d",
				final.patterns, final.covered, want.Patterns, want.Covered)
		}
		return nil
	}
}
