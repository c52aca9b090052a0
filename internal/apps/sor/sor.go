// Package sor implements the Successive Overrelaxation application of the
// paper (Section 4.8): red/black SOR solving a discretized Laplace equation
// on a grid distributed row-wise, the paper's example of nearest-neighbour
// parallelization.
//
// Original program: after each colour phase every processor synchronously
// exchanges its boundary rows with both neighbours; on cluster boundaries
// this blocks on an intercluster round trip at the start of every iteration,
// stalling the whole synchronous algorithm.
//
// Optimized program ("chaotic relaxation" after Chazan & Miranker, plus
// split-phase overlap): two out of three intercluster row exchanges are
// skipped — those iterations reuse stale ghost rows — and the remaining
// communication is overlapped with the interior computation. Convergence
// slows a little (the paper reports 5–10% more iterations) but intercluster
// traffic drops by two thirds.
package sor

import (
	"fmt"
	"math"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/cluster"
	"albatross/internal/coll"
	"albatross/internal/core"
	"albatross/internal/orca"
)

// Config describes one SOR problem.
type Config struct {
	NX, NY   int           // interior grid size (rows x columns)
	Omega    float64       // overrelaxation factor
	Eps      float64       // termination precision (max update magnitude)
	MaxIters int           // safety cap
	CellCost time.Duration // virtual CPU time per cell update
	SkipMod  int           // chaotic: intercluster exchanges happen every SkipMod'th iteration
}

// Default returns the scaled-down stand-in for the paper's 3500x900 grid
// with termination precision 0.0002 (the paper's run took 52 iterations).
func Default() Config {
	return Config{NX: 384, NY: 96, Omega: 1.94, Eps: 2e-4, MaxIters: 4000,
		CellCost: 2 * time.Microsecond, SkipMod: 3}
}

// newGrid allocates the (NX+2)x(NY+2) grid with the fixed boundary: the top
// edge is held at 1, the other edges at 0.
func newGrid(cfg Config) [][]float64 {
	g := make([][]float64, cfg.NX+2)
	for i := range g {
		g[i] = make([]float64, cfg.NY+2)
	}
	for j := 0; j < cfg.NY+2; j++ {
		g[0][j] = 1
	}
	return g
}

// relaxRow applies one colour phase to row i given its up/down neighbour
// rows, returning the largest update magnitude. It is the one kernel of the
// sequential reference and the workers. Only the cells of the phase's colour
// are visited — the first at column 1 or 2 by the parity of i, then every
// second one; a cell's update reads only cells of the other colour, so the
// order within a phase is immaterial. omega/4 is hoisted: the update was
// always (omega/4)*(...), so that is the same IEEE operation done once.
func relaxRow(row, up, down []float64, i, color int, omega float64) float64 {
	up, down = up[:len(row)], down[:len(row)]
	q := omega / 4
	maxD := 0.0
	j := 1
	if (i+1)%2 != color {
		j = 2
	}
	for ; j < len(row)-1; j += 2 {
		d := q * (up[j] + down[j] + row[j-1] + row[j+1] - 4*row[j])
		row[j] += d
		// Not the float max builtin: its NaN and signed-zero handling
		// makes the loop twice as slow (BenchmarkRelaxRow).
		if d = math.Abs(d); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Result is the sequential reference: the converged field and the number
// of iterations it took.
type Result struct {
	Grid  [][]float64
	Iters int
}

// Sequential is the reference the verifier compares against, solved once
// per Config and shared read-only.
var Sequential = memo.Of(sequential)

// sequential solves the system on one processor.
func sequential(cfg Config) Result {
	g := newGrid(cfg)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		maxD := 0.0
		for color := 0; color <= 1; color++ {
			for i := 1; i <= cfg.NX; i++ {
				if d := relaxRow(g[i], g[i-1], g[i+1], i, color, cfg.Omega); d > maxD {
					maxD = d
				}
			}
		}
		if maxD < cfg.Eps {
			return Result{Grid: g, Iters: iter}
		}
	}
	return Result{Grid: g, Iters: cfg.MaxIters}
}

// Residual recomputes the largest plain (omega = 1) single-update magnitude
// of a field — the quantity the termination test bounds, without the
// overrelaxation factor. The chaotic variant's verifier holds it to a small
// multiple of Eps.
func Residual(cfg Config, g [][]float64) float64 {
	maxD := 0.0
	for i := 1; i <= cfg.NX; i++ {
		for j := 1; j <= cfg.NY; j++ {
			d := (g[i-1][j] + g[i+1][j] + g[i][j-1] + g[i][j+1] - 4*g[i][j]) / 4
			if d < 0 {
				d = -d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// maxCombine folds the per-worker maximum deltas of the convergence
// allreduce (hoisted so repeated iterations allocate no closure).
func maxCombine(acc, v any) any {
	m := v.(float64)
	if acc != nil && acc.(float64) > m {
		return acc
	}
	return m
}

// Build sets up the parallel SOR run. optimized enables chaotic relaxation
// and split-phase overlap. The verifier checks convergence and agreement
// with the sequential solution (bitwise for the original variant).
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	verify, _ := BuildWithStats(sys, cfg, optimized)
	return verify
}

// BuildWithStats additionally exposes the iteration count the run used
// (valid after System.Run), for the convergence-cost measurements of the
// chaotic-relaxation ablation.
func BuildWithStats(sys *core.System, cfg Config, optimized bool) (verify func() error, iterations *int) {
	p := sys.Topo.Compute()
	if p > cfg.NX {
		// The platform is user input (dasbench -topo): spawn nothing, so
		// the run ends at once, and let the verifier carry the error.
		err := fmt.Errorf("sor: %d processors need at least one row each (NX=%d)", p, cfg.NX)
		return func() error { return err }, new(int)
	}
	g := newGrid(cfg)
	topo := sys.Topo

	// iters and converged are written by rank 0 only and read after the run.
	iters := 0
	converged := false
	// A message stream is identified by the sender's rank alone: the
	// per-neighbour send/recv sequences pair strictly (both sides evaluate
	// the same exchange schedule) and the network is FIFO per channel, so no
	// per-iteration tag is needed and the interned-tag space stays fixed.
	// Interned at setup, like every tag of a run: no LP writes the tag table.
	tags := make([]orca.TagID, p)
	for r := range tags {
		tags[r] = sys.RTS.InternTag(orca.Tag{Op: "sor", A: r})
	}

	// The per-iteration convergence test is a real wide-area allreduce
	// (cluster-local trees plus one WAN message per cluster), so every
	// worker learns the global maximum delta and decides termination
	// identically from it — no shared flags, which also makes the test
	// shard-safe (each hop is an ordinary runtime message).
	conv := coll.New(sys, "sor-conv", coll.WideArea)

	rowBytes := 8 * (cfg.NY + 2)

	sys.SpawnWorkers("sor", func(w *core.Worker) {
		r := w.Rank()
		lo, hi := core.Block(cfg.NX, p, r)
		lo++ // interior rows are 1-based: this rank owns rows lo..hi
		ownRows := hi - lo + 1
		// Ghost copies of the neighbours' boundary rows, starting at the
		// initial-grid value. Interior rows start all-zero and the nonzero
		// row 0 is a global boundary served by upRow directly, so the
		// ghosts simply start zeroed. They must NOT be copied from the live
		// grid here: under the sharded engine a neighbour on another LP may
		// already be relaxing its rows, and spawn-time reads of them race.
		ghostUp := make([]float64, cfg.NY+2)
		ghostDown := make([]float64, cfg.NY+2)
		hasUp, hasDown := r > 0, r < p-1

		tagSelf := tags[r]
		var tagUp, tagDown orca.TagID
		upWAN, downWAN := false, false
		if hasUp {
			tagUp = tags[r-1]
			upWAN = !topo.SameCluster(w.Node, cluster.NodeID(r-1))
		}
		if hasDown {
			tagDown = tags[r+1]
			downWAN = !topo.SameCluster(w.Node, cluster.NodeID(r+1))
		}

		// Boundary rows travel in per-direction double buffers, pre-boxed
		// so the steady-state send allocates nothing. Reusing buffer k at
		// send k+2 is safe: the receiver copies each payload out on
		// receipt, and the end-of-iteration allreduce means send k+2
		// cannot start before the receiver finished every receive of the
		// iteration containing send k.
		var upBufs, downBufs [2][]float64
		var upBoxed, downBoxed [2]any
		for k := 0; k < 2; k++ {
			upBufs[k] = make([]float64, cfg.NY+2)
			upBoxed[k] = upBufs[k]
			downBufs[k] = make([]float64, cfg.NY+2)
			downBoxed[k] = downBufs[k]
		}
		upSends, downSends := 0, 0

		// exchangeNow reports whether this phase exchanges with a
		// neighbour over the given link kind. The lock-step original
		// always exchanges. The chaotic optimized program exchanges freely
		// inside a cluster but crosses the WAN at most once per iteration
		// (before the red phase) and only on every SkipMod'th iteration.
		exchangeNow := func(iter, color int, wan bool) bool {
			if !optimized || !wan {
				return true
			}
			return color == 0 && iter%cfg.SkipMod == 0
		}

		upRow := func() []float64 {
			if lo == 1 {
				return g[0] // true global boundary
			}
			return ghostUp
		}
		downRow := func() []float64 {
			if hi == cfg.NX {
				return g[cfg.NX+1]
			}
			return ghostDown
		}

		var sendUp, sendDown bool
		recvGhosts := func() {
			if sendUp {
				copy(ghostUp, w.RecvID(tagUp).([]float64))
			}
			if sendDown {
				copy(ghostDown, w.RecvID(tagDown).([]float64))
			}
		}

		for iter := 1; ; iter++ {
			maxD := 0.0
			for color := 0; color <= 1; color++ {
				sendUp = hasUp && exchangeNow(iter, color, upWAN)
				sendDown = hasDown && exchangeNow(iter, color, downWAN)
				// Send our boundary rows first (asynchronously), so the
				// transfer overlaps with the computation below.
				if sendUp {
					k := upSends & 1
					upSends++
					copy(upBufs[k], g[lo])
					w.SendID(cluster.NodeID(r-1), tagSelf, rowBytes, upBoxed[k])
				}
				if sendDown {
					k := downSends & 1
					downSends++
					copy(downBufs[k], g[hi])
					w.SendID(cluster.NodeID(r+1), tagSelf, rowBytes, downBoxed[k])
				}
				// Chaotic mode relaxes cluster-edge rows with omega = 1
				// (plain Gauss-Seidel): overrelaxing repeatedly against a
				// stale ghost extrapolates old data and oscillates, while
				// the damped update is a contraction whatever the ghost's
				// age (Chazan & Miranker's stability condition).
				topOmega, bottomOmega := cfg.Omega, cfg.Omega
				if optimized && hasUp && upWAN {
					topOmega = 1.0
				}
				if optimized && hasDown && downWAN {
					bottomOmega = 1.0
				}

				if optimized && ownRows > 2 {
					// Split-phase: interior rows do not need the ghosts.
					for i := lo + 1; i <= hi-1; i++ {
						if d := relaxRow(g[i], g[i-1], g[i+1], i, color, cfg.Omega); d > maxD {
							maxD = d
						}
					}
					recvGhosts()
					if d := relaxRow(g[lo], upRow(), g[lo+1], lo, color, topOmega); d > maxD {
						maxD = d
					}
					if hi != lo {
						if d := relaxRow(g[hi], g[hi-1], downRow(), hi, color, bottomOmega); d > maxD {
							maxD = d
						}
					}
				} else {
					recvGhosts()
					for i := lo; i <= hi; i++ {
						om := cfg.Omega
						if i == lo {
							om = topOmega
						}
						if i == hi && bottomOmega < om {
							om = bottomOmega
						}
						up := g[i-1]
						if i == lo {
							up = upRow()
						}
						down := g[i+1]
						if i == hi {
							down = downRow()
						}
						if d := relaxRow(g[i], up, down, i, color, om); d > maxD {
							maxD = d
						}
					}
				}
				w.Compute(time.Duration(ownRows*(cfg.NY/2)) * cfg.CellCost)
			}

			// Global convergence test: a real allreduce of the maximum
			// delta, whose result every worker folds identically. The
			// lock-step original runs it every iteration, like the paper's
			// synchronous program. Chaotic mode runs it only on exchange
			// iterations — between exchanges the cluster-edge rows are
			// frozen and contribute no delta, so a quiet iteration in
			// between proves nothing about them, and skipping the test is
			// exactly the removal of global synchronization that chaotic
			// relaxation is about (clusters drift up to SkipMod iterations
			// before the next exchange resynchronizes them).
			if r == 0 {
				iters = iter
			}
			if fullSweep := !optimized || iter%cfg.SkipMod == 0; fullSweep {
				all := conv.AllReduce(w, 8, maxD, maxCombine).(float64)
				if all < cfg.Eps {
					if r == 0 {
						converged = true
					}
					return
				}
			}
			if iter >= cfg.MaxIters {
				return
			}
		}
	})

	verifyFn := func() error {
		if !converged {
			return fmt.Errorf("sor: no convergence in %d iterations", iters)
		}
		ref := Sequential(cfg)
		want, wantIters := ref.Grid, ref.Iters
		if !optimized {
			// Lock-step exchange: the parallel computation is the exact
			// sequential computation, so the match must be bitwise.
			if iters != wantIters {
				return fmt.Errorf("sor: %d iterations, sequential used %d", iters, wantIters)
			}
			for i := range want {
				for j := range want[i] {
					if g[i][j] != want[i][j] {
						return fmt.Errorf("sor: g[%d][%d]=%g, want %g", i, j, g[i][j], want[i][j])
					}
				}
			}
			return nil
		}
		// Chaotic relaxation: same fixpoint, different path. Check the
		// residual directly and the distance to the sequential solution.
		if res := Residual(cfg, g); res > 5*cfg.Eps {
			return fmt.Errorf("sor: residual %g too large", res)
		}
		maxDiff := 0.0
		for i := range want {
			for j := range want[i] {
				if d := math.Abs(g[i][j] - want[i][j]); d > maxDiff {
					maxDiff = d
				}
			}
		}
		if maxDiff > 0.05 {
			return fmt.Errorf("sor: max deviation from sequential %g", maxDiff)
		}
		return nil
	}
	return verifyFn, &iters
}
