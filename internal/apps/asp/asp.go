// Package asp implements the All-pairs Shortest Paths application of the
// paper (Section 4.3): a parallel Floyd-Warshall with the distance matrix
// divided row-wise over the processors. At iteration k the owner of row k
// broadcasts it (a replicated-object write); all processors then relax their
// own rows against it.
//
// The original program runs on the system's default sequencer (the
// distributed rotating sequencer on a wide-area system), where every
// broadcast waits for the ordering token to come around over the WAN. The
// optimized program uses the migrating sequencer, which follows the
// broadcasting cluster and lets consecutive row broadcasts pipeline.
package asp

import (
	"fmt"
	"sync/atomic"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// Inf is the "no edge" distance. It is large enough that Inf+weight never
// overflows int32.
const Inf int32 = 1 << 28

// Config describes one ASP problem instance.
type Config struct {
	N      int           // number of graph nodes
	Seed   uint64        // workload seed
	OpCost time.Duration // virtual CPU time per inner-loop relaxation
}

// Default returns the scaled-down stand-in for the paper's 3000-node input:
// the per-relaxation cost is raised so the compute-to-row-size ratio (the
// communication grain) matches the original problem on a 200 MHz CPU.
func Default() Config {
	return Config{N: 256, Seed: 42, OpCost: 2 * time.Microsecond}
}

// Generate builds the dense distance matrix of a pseudo-random directed
// graph: ~25% of the edges are present with weights 1..100.
func Generate(cfg Config) [][]int32 {
	r := rng.New(cfg.Seed)
	d := make([][]int32, cfg.N)
	for i := range d {
		d[i] = make([]int32, cfg.N)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case r.Intn(4) == 0:
				d[i][j] = int32(1 + r.Intn(100))
			default:
				d[i][j] = Inf
			}
		}
	}
	return d
}

// Sequential is the solved matrix the verifier compares against, solved once
// per Config and shared read-only.
var Sequential = memo.Of(sequential)

// sequential computes all-pairs shortest paths with Floyd-Warshall.
func sequential(cfg Config) [][]int32 {
	d := Generate(cfg)
	n := cfg.N
	for k := 0; k < n; k++ {
		rk := d[k]
		for i := 0; i < n; i++ {
			relax(d[i], rk, d[i][k])
		}
	}
	return d
}

// relax is the Floyd-Warshall inner loop, shared by the sequential reference
// and the parallel workers: ri[j] = min(ri[j], dik+rk[j]) for every column.
// A row with no path to the pivot is skipped (no entry exceeds Inf and
// weights are non-negative, so it could not improve). The minimum compiles
// to a conditional move and the four-wide three-index windows carry no
// per-element bounds checks, so the loop pays only for the arithmetic.
func relax(ri, rk []int32, dik int32) {
	if dik >= Inf {
		return
	}
	rk = rk[:len(ri)]
	j := 0
	for ; j+4 <= len(ri); j += 4 {
		a, b := ri[j:j+4:j+4], rk[j:j+4:j+4]
		a[0] = min(a[0], dik+b[0])
		a[1] = min(a[1], dik+b[1])
		a[2] = min(a[2], dik+b[2])
		a[3] = min(a[3], dik+b[3])
	}
	for ; j < len(ri); j++ {
		ri[j] = min(ri[j], dik+rk[j])
	}
}

// master is the pristine input matrix, generated once per Config. Build
// relaxes its rows in place, so it works on a copy.
var master = memo.Of(Generate)

func copyMatrix(src [][]int32) [][]int32 {
	d := make([][]int32, len(src))
	for i, row := range src {
		d[i] = append([]int32(nil), row...)
	}
	return d
}

// pivotRow carries one pivot-row buffer. Rows travel through replicas and
// futures as *pivotRow: the pointer boxes into an interface without
// allocating, where a bare []int32 would allocate a header per replica per
// row (the dominant allocation of the whole run before this record existed).
type pivotRow struct {
	row []int32
}

// pivotState is each node's replica of the pivot-row object: the rows
// received so far plus futures for processes waiting on a row, both dense
// by iteration. The wait future is pooled: each node has one worker, so at
// most one wait is outstanding per node at a time.
type pivotState struct {
	node    cluster.NodeID
	rows    []*pivotRow
	wait    []*sim.Future
	futPool sim.Free[sim.Future]
}

// Build sets up the parallel ASP run on the system and returns a verifier
// that compares the parallel result against the sequential reference.
// The original and optimized programs differ only in the system's sequencer
// (see Sequencer); the application code is identical.
func Build(sys *core.System, cfg Config) func() error {
	n := cfg.N
	p := sys.Topo.Compute()
	d := copyMatrix(master(cfg))

	pivot := sys.RTS.NewReplicated("pivot-rows", func(node cluster.NodeID) any {
		return &pivotState{node: node, rows: make([]*pivotRow, n), wait: make([]*sim.Future, n)}
	})

	// Pivot-row buffers are refcounted and recycled: the owner snapshots
	// into a pooled buffer, every worker releases the row after its relax
	// sweep, and the last release returns the buffer for a later pivot. The
	// live row set stays proportional to the broadcast pipeline depth
	// instead of the full matrix. Releases land on every node, so on the
	// sharded engine on several LPs at once: the refcounts are atomic and
	// each engine has its own pool, the rule of the runtime's own broadcast
	// records.
	rowPool, _ := netsim.PerEngine(sys.Net, func(int) *sim.Free[pivotRow] { return new(sim.Free[pivotRow]) })
	rowRefs := make([]atomic.Int32, n)
	getRow := func(node cluster.NodeID) *pivotRow {
		pr := rowPool[sys.Net.ClusterOf(node)].Get()
		if pr.row == nil {
			pr.row = make([]int32, n)
		}
		return pr
	}
	releaseRow := func(st *pivotState, k int, pr *pivotRow) {
		st.rows[k] = nil
		if rowRefs[k].Add(-1) == 0 {
			rowPool[sys.Net.ClusterOf(st.node)].Put(pr)
		}
	}

	setRow := func(k int, pr *pivotRow) orca.Op {
		return orca.Op{
			Name: "SetRow", ArgBytes: 4 * len(pr.row), ResBytes: 4,
			Apply: func(s any) any {
				st := s.(*pivotState)
				st.rows[k] = pr
				if f := st.wait[k]; f != nil {
					st.wait[k] = nil
					f.Set(pr)
				}
				return nil
			},
		}
	}

	waitRow := func(w *core.Worker, st *pivotState, k int) *pivotRow {
		if pr := st.rows[k]; pr != nil {
			return pr
		}
		f := st.futPool.Get()
		if f.Done() {
			f.Reset("asp-row")
		} else {
			// Fresh (a pooled future is a resolved one). It belongs to this
			// node's worker: create it on the node's own engine so it lives
			// entirely on one LP when sharded.
			*f = *sim.NewFuture(sys.EngineFor(st.node), "asp-row")
		}
		st.wait[k] = f
		pr := f.Await(w.P).(*pivotRow)
		// Apply cleared st.wait[k] before Set, so the future is idle again.
		st.futPool.Put(f)
		return pr
	}

	owner := func(k int) int {
		base, rem := n/p, n%p
		if k < (base+1)*rem {
			return k / (base + 1)
		}
		return rem + (k-(base+1)*rem)/base
	}

	sys.SpawnWorkers("asp", func(w *core.Worker) {
		lo, hi := core.Block(n, p, w.Rank())
		own := hi - lo
		st := pivot.Replica(w.Node).(*pivotState)
		for k := 0; k < n; k++ {
			var pr *pivotRow
			if owner(k) == w.Rank() {
				// Snapshot the row: it already reflects iterations < k.
				pr = getRow(w.Node)
				copy(pr.row, d[k])
				rowRefs[k].Store(int32(p))
				w.Invoke(pivot, setRow(k, pr))
			} else {
				pr = waitRow(w, st, k)
			}
			for i := lo; i < hi; i++ {
				relax(d[i], pr.row, d[i][k])
			}
			releaseRow(st, k, pr)
			w.Compute(time.Duration(own*n) * cfg.OpCost)
		}
	})

	return func() error {
		want := Sequential(cfg)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][j] != want[i][j] {
					return fmt.Errorf("asp: d[%d][%d] = %d, want %d", i, j, d[i][j], want[i][j])
				}
			}
		}
		return nil
	}
}

// Sequencer returns the broadcast sequencer the variant runs on: the system
// default for the original program, the migrating sequencer for the
// optimized one (the paper's ASP optimization is entirely in the runtime).
func Sequencer(optimized bool) orca.Sequencer {
	if optimized {
		return orca.NewMigratingSequencer()
	}
	return nil
}
