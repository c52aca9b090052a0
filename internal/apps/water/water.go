// Package water implements the Water application of the paper (Section
// 4.1), modelled on the "n-squared" Water code from the SPLASH suite: an
// n-body simulation in which every iteration exchanges molecule data in a
// personalized all-to-all pattern — each processor gets the positions of the
// molecules of the next p/2 processors, computes pairwise interactions, and
// sends the computed forces back to be summed by their owners.
//
// Original program: every consumer pulls/pushes across the WAN itself, so
// the same molecule block crosses the same WAN link many times.
//
// Optimized program (the paper's cluster caching): one processor per cluster
// is the local coordinator for each remote processor P; position reads go
// through the coordinator's cache (core.ClusterCache) so P's block crosses
// each WAN link once per iteration, and force write-backs are first reduced
// inside the cluster (core.ClusterReducer) so only one combined contribution
// per cluster travels back.
package water

import (
	"fmt"
	"math"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/core"
	"albatross/internal/netsim"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// Vec is a 3-vector.
type Vec [3]float64

// Config describes one Water problem.
type Config struct {
	N        int           // number of molecules
	Iters    int           // simulation time steps
	Seed     uint64        // workload seed
	PairCost time.Duration // virtual CPU time per pairwise interaction
	DT       float64       // integration step
}

// Default returns the scaled-down stand-in for the paper's 4096-molecule,
// two-time-step input.
func Default() Config {
	return Config{N: 512, Iters: 2, Seed: 99, PairCost: 16 * time.Microsecond, DT: 1e-4}
}

const molBytes = 24 // one 3-vector on the wire

// initMolecules places molecules pseudo-randomly in the unit box.
func initMolecules(cfg Config) []Vec {
	r := rng.New(cfg.Seed)
	pos := make([]Vec, cfg.N)
	for i := range pos {
		for d := 0; d < 3; d++ {
			pos[i][d] = r.Float64()
		}
	}
	return pos
}

// force computes the pair interaction (softened inverse-square attraction)
// acting on a from b.
func force(a, b Vec) Vec {
	var d Vec
	r2 := 1e-2 // softening keeps forces bounded for verification stability
	for k := 0; k < 3; k++ {
		d[k] = b[k] - a[k]
		r2 += d[k] * d[k]
	}
	inv := 1 / (r2 * math.Sqrt(r2))
	for k := 0; k < 3; k++ {
		d[k] *= inv
	}
	return d
}

// targets returns the ranks whose blocks rank i interacts with (the paper's
// "next p/2 processors" half-shell rule; for even p the diameter pair is
// computed by the lower rank only).
func targets(p, i int) []int {
	if p == 1 {
		return nil
	}
	h := p / 2
	var out []int
	for d := 1; d <= h; d++ {
		j := (i + d) % p
		if d == h && p%2 == 0 && i >= j {
			continue
		}
		out = append(out, j)
	}
	return out
}

// senders returns the ranks that interact with rank i's block (the inverse
// of targets), ascending: j targets i iff i lies 1..p/2 ranks after j, less
// the even-p diameter pair, which the lower rank alone computes.
func senders(p, i int) []int {
	var out []int
	for j := 0; j < p; j++ {
		d := (i - j + p) % p
		if d < 1 || d > p/2 || (d == p/2 && p%2 == 0 && j >= i) {
			continue
		}
		out = append(out, j)
	}
	return out
}

// internalStep computes the pairs inside one block.
func internalStep(pos []Vec, lo, hi int, f []Vec) int {
	pairs := 0
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			fv := force(pos[i], pos[j])
			for k := 0; k < 3; k++ {
				f[i-lo][k] += fv[k]
				f[j-lo][k] -= fv[k]
			}
			pairs++
		}
	}
	return pairs
}

// Sequential is the final positions the verifier compares against, solved
// once per Config and shared read-only.
var Sequential = memo.Of(sequential)

// sequential runs the reference simulation on one processor.
func sequential(cfg Config) []Vec {
	pos := initMolecules(cfg)
	vel := make([]Vec, cfg.N)
	for t := 0; t < cfg.Iters; t++ {
		f := make([]Vec, cfg.N)
		internalStep(pos, 0, cfg.N, f)
		for i := range pos {
			for k := 0; k < 3; k++ {
				vel[i][k] += f[i][k] * cfg.DT
				pos[i][k] += vel[i][k] * cfg.DT
			}
		}
	}
	return pos
}

// iterState is the per-processor exchange bookkeeping of one iteration.
//
// States live in a two-slot parity ring instead of a per-iteration map: a
// message for iteration t arrives only once its sender has reached t, and a
// sender reaches t only after every one of its interaction partners — in
// particular this processor — has finished t-2 and stopped touching that
// slot. So the slot of iteration t-2 is always reclaimable when t begins.
type iterState struct {
	t       int
	pos     [][]Vec // sender rank -> their positions (this iteration)
	posGot  int
	posFut  *sim.Future
	frcAgg  []Vec // summed force contributions received
	frcGot  int
	frcFut  *sim.Future
	posNeed int
	frcNeed int
}

// procState is one processor's mailbox-object state in the original program.
type procState struct {
	rank  int
	fut   *sim.Future // pooled wait future: at most one wait pending per proc
	slots [2]*iterState
}

func newProcState(rank, p, posNeed, frcNeed, blockLen int) *procState {
	ps := &procState{rank: rank}
	for k := range ps.slots {
		ps.slots[k] = &iterState{t: -1, pos: make([][]Vec, p),
			frcAgg: make([]Vec, blockLen), posNeed: posNeed, frcNeed: frcNeed}
	}
	return ps
}

// at returns iteration t's state, reclaiming the parity slot last used by
// iteration t-2 (see iterState).
func (ps *procState) at(t int) *iterState {
	st := ps.slots[t&1]
	if st.t != t {
		st.t = t
		st.posGot, st.frcGot = 0, 0
		for i := range st.pos {
			st.pos[i] = nil
		}
		for i := range st.frcAgg {
			st.frcAgg[i] = Vec{}
		}
	}
	return st
}

// futFor returns the processor's reusable wait future. The exchange loop
// waits at most once at a time (positions, then forces), and every wait is
// always completed, so a single rearmed future per processor suffices.
func (ps *procState) futFor(e *sim.Engine) *sim.Future {
	if ps.fut == nil {
		ps.fut = sim.NewFuture(e, "water-wait")
	} else {
		ps.fut.Reset("water-wait")
	}
	return ps.fut
}

// forcePools builds the force-buffer pools, by cluster. Every receiver folds a
// contribution into its accumulator the moment it arrives and never retains
// the slice, so buffers cycle sender -> receiver -> pool, migrating between
// pools with the messages that carry them: a buffer is always recycled into
// the pool of the engine that finished reading it. Every buffer is made at
// the largest block length, so it fits any block.
func forcePools(sys *core.System, max int) []*sim.Slices[Vec] {
	vps, _ := netsim.PerEngine(sys.Net, func(int) *sim.Slices[Vec] { return &sim.Slices[Vec]{MinCap: max} })
	return vps
}

// Options selects which of the paper's two Water optimizations to apply —
// both in the paper's optimized program, individually in the ablation.
type Options struct {
	Cache  bool // cluster-level caching of position reads
	Reduce bool // cluster-level reduction of force write-backs
}

// Build sets up the parallel Water run; optimized selects cluster caching
// and cluster-level reduction. The verifier compares final positions with
// the sequential reference.
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	if optimized {
		return BuildVariant(sys, cfg, Options{Cache: true, Reduce: true})
	}
	return BuildVariant(sys, cfg, Options{})
}

// BuildVariant sets up the run with an explicit optimization selection.
// The zero Options value is the original (RPC push) program.
func BuildVariant(sys *core.System, cfg Config, opts Options) func() error {
	p := sys.Topo.Compute()
	if p > cfg.N {
		panic(fmt.Sprintf("water: %d processors need at least one molecule each (N=%d)", p, cfg.N))
	}
	pos := initMolecules(cfg)
	vel := make([]Vec, cfg.N)

	tgt := make([][]int, p)
	snd := make([][]int, p)
	for i := 0; i < p; i++ {
		tgt[i] = targets(p, i)
		snd[i] = senders(p, i)
	}
	blockLen := func(r int) int { lo, hi := core.Block(cfg.N, p, r); return hi - lo }

	if opts.Cache || opts.Reduce {
		buildOptimized(sys, cfg, pos, vel, tgt, snd, blockLen, opts)
	} else {
		buildOriginal(sys, cfg, pos, vel, tgt, snd, blockLen)
	}

	return func() error {
		want := Sequential(cfg)
		for i := range want {
			for k := 0; k < 3; k++ {
				if math.Abs(pos[i][k]-want[i][k]) > 1e-9 {
					return fmt.Errorf("water: molecule %d coord %d = %v, want %v", i, k, pos[i][k], want[i][k])
				}
			}
		}
		return nil
	}
}

// integrate advances the owner's block after all force contributions are in.
func integrate(cfg Config, pos, vel []Vec, lo, hi int, f []Vec) {
	for i := lo; i < hi; i++ {
		for k := 0; k < 3; k++ {
			vel[i][k] += f[i-lo][k] * cfg.DT
			pos[i][k] += vel[i][k] * cfg.DT
		}
	}
}

// addInto sums a force contribution into an accumulator.
func addInto(acc []Vec, contrib []Vec) {
	for i := range contrib {
		for k := 0; k < 3; k++ {
			acc[i][k] += contrib[i][k]
		}
	}
}
