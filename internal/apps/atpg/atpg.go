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
	"math/bits"
	"slices"
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

// gate kinds. gNor computes (¬a) ∨ b, not NOR: the model's scalar
// evaluator (the tests' oracle) spells it 1 - a | b, which Go parses as
// (1-a) | b. Every ATPG result and golden depends on it, so the word kernel
// reproduces it (^a | b) until a model change fixes it.
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

// Scratch holds one evaluator's reusable state: the good and the faulty
// circuit's signal words, one bit per try, and the per-fault pattern
// generator. A Scratch serves one evaluation at a time and must not be
// shared between concurrent ones.
type Scratch struct {
	good, bad []uint64
	r         *rng.Rand
}

// NewScratch returns scratch buffers sized for this circuit.
func (c *Circuit) NewScratch() *Scratch {
	n := c.cfg.Inputs + len(c.gates)
	return &Scratch{good: make([]uint64, n), bad: make([]uint64, n), r: rng.New(0)}
}

// evalWords evaluates gates from..Gates-1 on 64 tries at once, bit l of
// every signal word belonging to try l. Signals below Inputs+from must
// already be set.
func (c *Circuit) evalWords(vals []uint64, from int) {
	in := c.cfg.Inputs
	for i := from; i < len(c.gates); i++ {
		g := c.gates[i]
		a, b := vals[g.a], vals[g.b]
		var v uint64
		switch g.kind {
		case gAnd:
			v = a & b
		case gOr:
			v = a | b
		case gNand:
			v = ^(a & b)
		case gNor:
			v = ^a | b // the scalar model's (¬a) ∨ b, see the gate kinds
		case gXor:
			v = a ^ b
		case gNot:
			v = ^a
		}
		vals[in+i] = v
	}
}

// signature hashes try l's primary outputs (the last Outputs gate signals).
func (c *Circuit) signature(vals []uint64, l int) uint64 {
	n := len(vals)
	var sig uint64
	for i := n - c.Outputs(); i < n; i++ {
		sig = sig<<1 | vals[i]>>l&1
		if i%53 == 0 {
			sig *= 0x9e3779b97f4a7c15 // fold long output vectors
		}
	}
	return sig
}

// TestFault searches for a pattern detecting f, trying cfg.Tries
// deterministic pseudo-random patterns, with s's buffers. It returns the
// pattern, whether one was found, and the number of gate evaluations spent:
// two circuit simulations per try up to and including the detecting one.
//
// The tries run 64 to a word. Per chunk the good circuit is evaluated once;
// the faulty one copies the signals before the faulted gate and evaluates
// only from it onward. A try detects f iff its output signatures differ, so
// only tries whose outputs differ are hashed, in try order.
func (c *Circuit) TestFault(s *Scratch, f Fault) (pattern uint64, found bool, evals int64) {
	s.r.Seed(c.cfg.Seed ^ rng.Hash64(uint64(f.Gate)*2+uint64(f.StuckAt)))
	in, outs := c.cfg.Inputs, len(s.good)-c.Outputs()
	stuck := -uint64(f.StuckAt) // all ones for stuck-at-1
	var chunk [64]uint64
	for base := 0; base < c.cfg.Tries; base += 64 {
		k := min(64, c.cfg.Tries-base)
		pats := chunk[:k]
		for l := range pats {
			pats[l] = s.r.Uint64()
		}
		for i := 0; i < in; i++ {
			var w uint64
			for l, p := range pats {
				w |= (p >> i & 1) << l
			}
			s.good[i] = w
		}
		c.evalWords(s.good, 0)
		copy(s.bad[:in+f.Gate], s.good)
		s.bad[in+f.Gate] = stuck
		c.evalWords(s.bad, f.Gate+1)
		var diff uint64
		for i := outs; i < len(s.good); i++ {
			diff |= s.good[i] ^ s.bad[i]
		}
		if k < 64 {
			diff &= 1<<k - 1
		}
		for ; diff != 0; diff &= diff - 1 {
			l := bits.TrailingZeros64(diff)
			if c.signature(s.good, l) != c.signature(s.bad, l) {
				return pats[l], true, int64(2 * len(c.gates) * (base + l + 1))
			}
		}
	}
	return 0, false, int64(2 * len(c.gates) * c.cfg.Tries)
}

// Result is the statistic the program reports.
type Result struct {
	Patterns int // test patterns generated
	Covered  int // faults covered by them
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

// tests runs every fault's pattern search, in blocks of 64 faults that share
// one scratch: a fresh scratch per fault costs more than the search. The
// blocks share the circuit, which is read-only after generation: all
// evaluation state lives in a Scratch.
func tests(cfg Config) []faultTest {
	c := NewCircuit(cfg)
	faults := c.Faults()
	const block = 64
	blocks := memo.Each((len(faults)+block-1)/block, func(b int) []faultTest {
		s := c.NewScratch()
		out := make([]faultTest, min(block, len(faults)-b*block))
		for i := range out {
			_, out[i].found, out[i].evals = c.TestFault(s, faults[b*block+i])
		}
		return out
	})
	return slices.Concat(blocks...)
}

// Sequential is the reference result the verifier compares against: the
// fold of the search table, one pattern and one covered fault per fault a
// search detects. The loop over Faults that it equals is
// TestSearchTableMatchesOracle's oracle.
func Sequential(cfg Config) Result {
	var res Result
	for _, t := range testsFor(cfg) {
		if t.found {
			res.Patterns++
			res.Covered++
		}
	}
	return res
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
