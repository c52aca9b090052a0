// Package acp implements the Arc Consistency Problem application of the
// paper (Section 4.7): the first step of constraint solving — repeatedly
// removing values from variable domains that no value of a constraining
// neighbour supports, until a fixpoint. Variables are statically partitioned
// over the processors; domains live in a replicated object so reads are
// local, and every domain pruning is broadcast to all processors.
//
// Original program: prunings are totally-ordered broadcasts; the writer
// blocks until its own delivery, and on a wide-area system the many small
// broadcasts hammer the sequencer and the gateways.
//
// Optimized program (proposed but not implemented in the paper; we implement
// it): asynchronous broadcasts. Domain pruning is a commutative, idempotent
// bitmask AND, so no total order is needed; senders continue immediately and
// the same fixpoint is reached.
package acp

import (
	"fmt"
	"math/bits"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/cluster"
	"albatross/internal/coll"
	"albatross/internal/core"
	"albatross/internal/orca"
	"albatross/internal/rng"
)

// Config describes one binary CSP instance.
type Config struct {
	Vars      int // number of variables
	Domain    int // values per domain (max 32)
	Degree    int // average constraints per variable
	Tightness int // percent of value pairs disallowed by a constraint
	Seed      uint64
	CheckCost time.Duration // virtual CPU time per support check
}

// Default returns the scaled-down stand-in for the paper's 1500-variable
// input.
func Default() Config {
	return Config{Vars: 320, Domain: 16, Degree: 6, Tightness: 75, Seed: 13,
		CheckCost: 2 * time.Microsecond}
}

// Problem is one generated CSP: the constraint graph and, per directed
// edge, the constraint itself tabulated as support masks.
type Problem struct {
	cfg       Config
	neighbors [][]int32 // adjacency lists (symmetric)
	// sup[v][k*Domain+a] is the set of values of v's k-th neighbour that
	// support value a of v: bit b is allowed(v, neighbors[v][k], a, b).
	sup [][]uint32
}

// problemFor is the Problem of a Config, generated once and shared
// read-only by the sequential reference and every run.
var problemFor = memo.Of(NewProblem)

// allowed reports whether (a from D(i), b from D(j)) satisfies the
// constraint between i and j. It is symmetric by canonicalization.
func (pr *Problem) allowed(i, j int, a, b int) bool {
	if i > j {
		i, j, a, b = j, i, b, a
	}
	h := rng.Hash64(pr.cfg.Seed ^ rng.Hash64(uint64(i)<<40|uint64(j)<<20|uint64(a)<<8|uint64(b)))
	return int(h%100) >= pr.cfg.Tightness
}

// NewProblem generates the deterministic constraint graph for cfg and
// tabulates its constraints.
func NewProblem(cfg Config) *Problem {
	if cfg.Domain > 32 {
		panic("acp: domain must fit a 32-bit mask")
	}
	r := rng.New(cfg.Seed)
	pr := &Problem{cfg: cfg, neighbors: make([][]int32, cfg.Vars), sup: make([][]uint32, cfg.Vars)}
	edges := cfg.Vars * cfg.Degree / 2
	seen := make(map[[2]int32]bool)
	for e := 0; e < edges; e++ {
		i := int32(r.Intn(cfg.Vars))
		j := int32(r.Intn(cfg.Vars))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		pr.neighbors[i] = append(pr.neighbors[i], j)
		pr.neighbors[j] = append(pr.neighbors[j], i)
	}
	for v, nb := range pr.neighbors {
		sup := make([]uint32, len(nb)*cfg.Domain)
		for k, u := range nb {
			for a := 0; a < cfg.Domain; a++ {
				for b := 0; b < cfg.Domain; b++ {
					if pr.allowed(v, int(u), a, b) {
						sup[k*cfg.Domain+a] |= 1 << b
					}
				}
			}
		}
		pr.sup[v] = sup
	}
	return pr
}

func fullMask(d int) uint32 {
	if d == 32 {
		return ^uint32(0)
	}
	return (1 << d) - 1
}

// revise recomputes D(v) against its k-th neighbour, whose domain is du:
// values of v without any support in du are removed. It returns the new mask
// and the number of support checks an ascending scan of du makes per live
// value of v — up to and including the first supporting value, or all of du
// when there is none. That count is the virtual time the caller charges, so
// it is computed exactly, without doing the scan.
func (pr *Problem) revise(v, k int, dv, du uint32) (uint32, int) {
	sup := pr.sup[v][k*pr.cfg.Domain:][:pr.cfg.Domain]
	checks := 0
	out := dv
	for live := dv; live != 0; live &= live - 1 {
		a := bits.TrailingZeros32(live)
		if s := du & sup[a]; s != 0 {
			checks += bits.OnesCount32(du&(s&-s-1)) + 1
		} else {
			checks += bits.OnesCount32(du)
			out &^= 1 << a
		}
	}
	return out, checks
}

// Sequential is the AC fixpoint the verifier compares against, solved once
// per Config and shared read-only.
var Sequential = memo.Of(sequential)

// sequential computes the AC fixpoint with an AC-3 style worklist. The
// fixpoint is unique, so it verifies any execution order.
func sequential(cfg Config) []uint32 {
	pr := problemFor(cfg)
	dom := make([]uint32, cfg.Vars)
	for i := range dom {
		dom[i] = fullMask(cfg.Domain)
	}
	work := make([]int32, 0, cfg.Vars)
	inWork := make([]bool, cfg.Vars)
	for i := 0; i < cfg.Vars; i++ {
		work = append(work, int32(i))
		inWork[i] = true
	}
	for len(work) > 0 {
		v := int(work[0])
		work = work[1:]
		inWork[v] = false
		nv := dom[v]
		for k, u := range pr.neighbors[v] {
			nv, _ = pr.revise(v, k, nv, dom[u])
		}
		if nv != dom[v] {
			dom[v] = nv
			for _, u := range pr.neighbors[v] {
				if !inWork[u] {
					inWork[u] = true
					work = append(work, u)
				}
			}
		}
	}
	return dom
}

// domState is each node's replica of the domains object.
type domState struct {
	node cluster.NodeID
	dom  []uint32
}

// Build sets up the parallel ACP run; optimized selects asynchronous
// broadcast. The verifier compares every replica against the sequential
// fixpoint.
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	pr := problemFor(cfg)
	p := sys.Topo.Compute()

	domains := sys.RTS.NewReplicated("domains", func(node cluster.NodeID) any {
		dom := make([]uint32, cfg.Vars)
		for i := range dom {
			dom[i] = fullMask(cfg.Domain)
		}
		return &domState{node: node, dom: dom}
	})

	// dirty[r] is worker r's local worklist. Every access happens at node
	// r — the worker reads it there and prunings mark it from their Apply
	// at node r — so each map belongs to one LP when sharded.
	dirty := make([]map[int]bool, p)
	for r := range dirty {
		dirty[r] = map[int]bool{}
		for v := r; v < cfg.Vars; v += p {
			dirty[r][v] = true
		}
	}
	// sent[r] counts prunings issued by worker r; applied[n] counts prune
	// applications performed at node n. Each slot is touched only at its
	// own node, and the per-round termination allreduce sums them all.
	sent := make([]int64, p)
	applied := make([]int64, p)

	// markDirty: when a pruning of v lands on a node, the variables
	// constrained by v that live on that node become dirty.
	markDirty := func(at cluster.NodeID, v int) {
		for _, u := range pr.neighbors[v] {
			if int(u)%p == int(at) {
				dirty[at][int(u)] = true
			}
		}
	}

	// pruneOp ANDs the new mask into every replica's domain of v.
	pruneOp := func(v int, mask uint32) orca.Op {
		return orca.Op{Name: "Prune", ArgBytes: 8, ResBytes: 4,
			Apply: func(s any) any {
				st := s.(*domState)
				old := st.dom[v]
				st.dom[v] &= mask
				applied[st.node]++
				if st.dom[v] != old {
					markDirty(st.node, v)
				}
				return nil
			}}
	}

	// Round termination runs as a real wide-area allreduce summing every
	// worker's (worklist size, prunings sent, prunings applied here). The
	// fixpoint is reached when no worklist holds a variable and every
	// issued pruning has been applied at every node: applied == p * sent
	// at the cut also proves no update is still in flight, because no
	// worker sends while all are inside the allreduce.
	term := coll.New(sys, "acp-term", coll.WideArea)

	sys.SpawnWorkers("acp", func(w *core.Worker) {
		r := w.Rank()
		st := domains.Replica(w.Node).(*domState)
		for {
			work := make([]int, 0, len(dirty[r]))
			for v := range dirty[r] {
				work = append(work, v)
			}
			// Deterministic order.
			sortInts(work)
			dirty[r] = map[int]bool{}
			if len(work) == 0 {
				w.P.Sleep(100 * time.Microsecond)
			}
			for _, v := range work {
				nv := st.dom[v]
				checks := 0
				for k, u := range pr.neighbors[v] {
					var c int
					nv, c = pr.revise(v, k, nv, st.dom[u])
					checks += c
				}
				w.Compute(time.Duration(checks) * cfg.CheckCost)
				if nv != st.dom[v] {
					sent[r]++
					op := pruneOp(v, nv)
					if optimized {
						domains.AsyncUpdate(w.Node, op)
					} else {
						w.Invoke(domains, op)
					}
				}
			}
			tot := term.AllReduce(w, 24,
				acpTotals{dirty: int64(len(dirty[r])), sent: sent[r], applied: applied[r]},
				sumTotals).(acpTotals)
			if tot.dirty == 0 && tot.applied == int64(p)*tot.sent {
				return
			}
		}
	})

	return func() error {
		want := Sequential(cfg)
		for n := 0; n < p; n++ {
			st := domains.Replica(cluster.NodeID(n)).(*domState)
			for v := range want {
				if st.dom[v] != want[v] {
					return fmt.Errorf("acp: node %d domain[%d] = %x, want %x", n, v, st.dom[v], want[v])
				}
			}
		}
		return nil
	}
}

// acpTotals is one worker's contribution to the termination allreduce.
type acpTotals struct {
	dirty   int64 // variables still on the worker's worklist
	sent    int64 // prunings the worker has issued so far
	applied int64 // prunings applied at the worker's node so far
}

// sumTotals folds the termination contributions elementwise.
func sumTotals(acc, v any) any {
	t := v.(acpTotals)
	if acc == nil {
		return t
	}
	a := acc.(acpTotals)
	a.dirty += t.dirty
	a.sent += t.sent
	a.applied += t.applied
	return a
}

// sortInts sorts a small int slice (insertion sort; worklists are short).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
