// Package ra implements the Retrograde Analysis application of the paper
// (Section 4.5): bottom-up enumeration of a game database. Starting from
// terminal positions with known game-theoretic values, values propagate
// backwards to predecessors; the resulting communication is an enormous
// number of tiny, highly irregular, asynchronous messages — the hardest
// pattern in the paper's suite (the original program's four-cluster speedup
// is below one).
//
// The paper computes a 12-stone Awari end-game database. We substitute a
// synthetic deterministic game DAG (hash-generated forward edges, terminal
// positions of known value) — the communication pattern, which is what the
// experiment studies, is identical: every determined position sends one
// small update per predecessor to the predecessor's owner, in an
// unpredictable order. See DESIGN.md for the substitution argument.
//
// Original program: sender-side per-destination message combining (the
// paper's base program already has this node-level combining [Bal&Allis
// '95]). Optimized program: message combining at the *cluster* level
// (core.Combiner) — all traffic for a remote cluster leaves through one
// designated machine in large combined messages.
package ra

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

// Value is a game-theoretic position value for the player to move.
type Value uint8

const (
	Undetermined Value = iota
	Win
	Loss
)

// Config describes one synthetic end-game database.
type Config struct {
	N         int           // positions
	Succ      int           // successors per non-terminal position
	Span      int           // successors lie within (v, v+Span]
	TermPct   int           // percent of positions that are terminal (plus the tail)
	Seed      uint64        //
	ApplyCost time.Duration // virtual CPU time per update processed
	SendCost  time.Duration // virtual CPU time per message sent (protocol overhead)
	NodeBatch int           // sender-side per-destination combining factor
	FlushEach time.Duration // combiner/batch straggler flush interval
}

// Default returns the scaled-down stand-in for the paper's 12-stone Awari
// database.
func Default() Config {
	return Config{N: 150_000, Succ: 3, Span: 20_000, TermPct: 5, Seed: 21,
		ApplyCost: 2 * time.Microsecond, SendCost: 25 * time.Microsecond,
		NodeBatch: 16, FlushEach: 500 * time.Microsecond}
}

// Game is the generated DAG, defined implicitly by hashing.
type Game struct{ cfg Config }

// NewGame builds the deterministic game for cfg.
func NewGame(cfg Config) *Game { return &Game{cfg: cfg} }

// Terminal reports whether v is a terminal (immediately lost) position.
func (g *Game) Terminal(v int) bool {
	if v >= g.cfg.N-g.cfg.Span/2-1 {
		return true // the tail is terminal so successors always exist
	}
	return rng.Hash64(g.cfg.Seed^uint64(v)*0x9e37)%100 < uint64(g.cfg.TermPct)
}

// AppendSuccessors appends v's successors to buf and returns the extended
// slice, so sweeps over many positions reuse one buffer instead of
// allocating per position.
func (g *Game) AppendSuccessors(buf []int32, v int) []int32 {
	if g.Terminal(v) {
		return buf
	}
	span := g.cfg.Span
	if v+span >= g.cfg.N {
		span = g.cfg.N - 1 - v
	}
	start := len(buf)
	h := g.cfg.Seed ^ uint64(v)*0x517c_c1b7_2722_0a95
	for k := 0; k < g.cfg.Succ; k++ {
		s := int32(v + 1 + int(rng.SplitMix64(&h)%uint64(span)))
		dup := false
		for _, o := range buf[start:] {
			if o == s {
				dup = true
			}
		}
		if !dup {
			buf = append(buf, s)
		}
	}
	return buf
}

// Sequential is the value table the verifier compares against, solved once
// per Config and shared read-only.
var Sequential = memo.Of(sequential)

// sequential computes every position's value by memoized backward induction.
func sequential(cfg Config) []Value {
	g := NewGame(cfg)
	vals := make([]Value, cfg.N)
	// Positions only point forward, so a reverse sweep is a topological
	// order.
	scratch := make([]int32, 0, cfg.Succ)
	for v := cfg.N - 1; v >= 0; v-- {
		succ := g.AppendSuccessors(scratch[:0], v)
		if len(succ) == 0 {
			vals[v] = Loss
			continue
		}
		val := Loss // if all successors are wins for the opponent
		for _, s := range succ {
			if vals[s] == Loss {
				val = Win
				break
			}
		}
		vals[v] = val
	}
	return vals
}

// reverse is the game's reverse graph — what a run needs before it starts
// (the paper measures the core algorithm, excluding startup). It is held in
// CSR form, two pointer-free arrays instead of N slice headers for the
// collector to scan, and built once per Config: runs share off and pred
// read-only and copy undet.
type reverse struct {
	off   []int32 // pred[off[v]:off[v+1]] are v's predecessors, ascending
	pred  []int32
	undet []int32 // successors per position: the initial undetermined counts
}

var reverseOf = memo.Of(buildReverse)

func buildReverse(cfg Config) reverse {
	g := NewGame(cfg)
	rev := reverse{off: make([]int32, cfg.N+1), undet: make([]int32, cfg.N)}
	// First sweep: off[s+1] counts s's predecessors, then becomes the prefix
	// sum; second sweep fills each list through a cursor.
	scratch := make([]int32, 0, cfg.Succ)
	for v := 0; v < cfg.N; v++ {
		scratch = g.AppendSuccessors(scratch[:0], v)
		rev.undet[v] = int32(len(scratch))
		for _, s := range scratch {
			rev.off[s+1]++
		}
	}
	for v := 0; v < cfg.N; v++ {
		rev.off[v+1] += rev.off[v]
	}
	rev.pred = make([]int32, rev.off[cfg.N])
	next := slices.Clone(rev.off[:cfg.N])
	for v := 0; v < cfg.N; v++ {
		scratch = g.AppendSuccessors(scratch[:0], v)
		for _, s := range scratch {
			rev.pred[next[s]] = int32(v)
			next[s]++
		}
	}
	return rev
}

// update is one retrograde notification: position target has a successor
// whose value is val.
type update struct {
	target int32
	val    Value
}

const updateBytes = 6

// batch is a combined group of updates in flight to one node. Batches are
// pooled (the receiver recycles them after processing) and travel as a
// pointer, so the steady-state send path allocates nothing.
type batch struct {
	items []update
}

// Build sets up the parallel RA run; optimized selects cluster-level message
// combining on top of the sender-side batching both variants use.
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	g := NewGame(cfg)
	p := sys.Topo.Compute()
	owner := func(v int32) int { return int(v) % p }

	vals := make([]Value, cfg.N)
	rev := reverseOf(cfg)
	undet := slices.Clone(rev.undet) // decremented as successors are determined

	var combiner *core.Combiner
	if optimized {
		combiner = core.NewCombiner(sys, "ra", 8192, cfg.FlushEach)
	}

	// One interned tag per destination rank, shared by all workers, and the
	// batch free lists by cluster: a batch retires into the pool of the
	// engine that consumed it, which may differ from where it was filled.
	tags := make([]orca.TagID, p)
	for r := 0; r < p; r++ {
		tags[r] = sys.RTS.InternTag(orca.Tag{Op: "ra", A: r})
	}
	pools, _ := netsim.PerEngine(sys.Net, func(int) *sim.Free[batch] { return new(sim.Free[batch]) })

	// determined[r] counts positions worker r has determined; each worker
	// only ever determines its own positions, so the slot stays on r's LP
	// and the verifier sums the array after the run. Workers terminate
	// locally: once all own positions are determined no incoming update
	// can generate work here (process drops determined targets), so after
	// a final flush the worker simply exits — no global counter needed.
	determined := make([]int, p)

	sys.SpawnWorkers("ra", func(w *core.Worker) {
		r := w.Rank()
		myCluster := w.Cluster()
		bp := pools[myCluster]

		// Sender-side per-destination batches (node-level combining). Bit d
		// of dirty is set exactly while batches[d] is non-nil, so an idle poll
		// that has nothing to flush costs p/64 word tests, not p slot reads.
		batches := make([]*batch, p)
		dirty := make([]uint64, (p+63)/64)
		// ApplyCost is charged to owed per update and paid in the next Compute
		// the worker makes anyway: no other process can observe this one between
		// two sends, so only the sends' instants (and the busy total) matter,
		// and every send still follows all the work that preceded it.
		var owed time.Duration
		// A send is chained (Proc.Ahead), to the owner of any of the batch's
		// targets: the worker is resumed only to observe its mailbox.
		send := func(a any) {
			b := a.(*batch)
			dst := owner(b.items[0].target)
			w.SendID(cluster.NodeID(dst), tags[dst], updateBytes*len(b.items), b)
		}
		flush := func(dst int) {
			b := batches[dst]
			batches[dst] = nil
			dirty[dst>>6] &^= 1 << (dst & 63)
			d := owed + cfg.SendCost
			owed = 0
			to := cluster.NodeID(dst)
			if optimized && sys.Net.ClusterOf(to) != myCluster {
				w.Compute(d)
				combiner.SendID(w, to, tags[dst], updateBytes*len(b.items), b)
				return
			}
			w.P.Ahead(d, send, b)
		}
		flushAll := func() {
			for i, word := range dirty {
				for ; word != 0; word &= word - 1 {
					flush(i<<6 + bits.TrailingZeros64(word))
				}
			}
		}

		// Newly determined own positions whose predecessors still need to
		// be notified (explicit stack: propagation chains can be long).
		type detTask struct {
			v   int32
			val Value
		}
		var stack []detTask

		setValue := func(v int32, val Value) {
			vals[v] = val
			determined[r]++
			stack = append(stack, detTask{v, val})
		}
		// process handles one notification "u has a successor of value
		// sval" for a position we own.
		process := func(u int32, sval Value) {
			if vals[u] != Undetermined {
				return
			}
			if sval == Loss {
				setValue(u, Win) // we can move to a lost-for-them position
				return
			}
			undet[u]--
			if undet[u] == 0 {
				setValue(u, Loss) // every move leads to a winning opponent
			}
		}
		// drain empties the propagation stack, notifying predecessors:
		// local ones are processed immediately, remote ones are batched.
		drain := func() {
			for len(stack) > 0 {
				t := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, u := range rev.pred[rev.off[t.v]:rev.off[t.v+1]] {
					d := owner(u)
					if d == r {
						owed += cfg.ApplyCost
						process(u, t.val)
						continue
					}
					b := batches[d]
					if b == nil {
						b = bp.Get()
						batches[d] = b
						dirty[d>>6] |= 1 << (d & 63)
					}
					b.items = append(b.items, update{target: u, val: t.val})
					if len(b.items) >= cfg.NodeBatch {
						flush(d)
					}
				}
			}
		}

		// Seed the computation with our own terminal positions.
		own := 0
		for v := r; v < cfg.N; v += p {
			own++
			if g.Terminal(v) {
				owed += cfg.ApplyCost
				setValue(int32(v), Loss)
			}
		}
		drain()
		flushAll()

		// The worker yields only where virtual time must be observed. A batch
		// queued now is, by FIFO order and this mailbox's single consumer, the
		// one a poll at now+owed would return, so it is taken without paying
		// first; only an empty mailbox makes the worker pay up and look again.
		// An idle worker flushes its partial batches (batches fill to NodeBatch
		// during busy periods — the point of the node-level combining — and
		// leave when input runs out) and polls every tick from one tick on:
		// nothing is processed meanwhile, so nothing can turn dirty, and Poll
		// sits the stretch out as one event. With no partial batch to flush,
		// paying up and looking again is the same poll started at now+owed.
		const tick = 200 * time.Microsecond
		clean := func() bool {
			for _, word := range dirty {
				if word != 0 {
					return false
				}
			}
			return true
		}
		for determined[r] < own {
			got, ok := w.TryRecvID(tags[r])
			if !ok && owed > 0 {
				if clean() {
					w.P.Charge(owed)
					w.PollID(tags[r], w.P.Now()+owed, tick)
					owed = 0
					continue
				}
				w.Compute(owed)
				owed = 0
				got, ok = w.TryRecvID(tags[r])
			}
			if !ok {
				flushAll()
				w.PollID(tags[r], w.P.Now()+tick, tick)
				continue
			}
			b := got.(*batch)
			owed += time.Duration(len(b.items)) * cfg.ApplyCost
			for _, up := range b.items {
				process(up.target, up.val)
			}
			b.items = b.items[:0]
			bp.Put(b)
			drain()
		}
		// The last own determination may have left batched notifications
		// for other nodes' predecessors; ship them before exiting, and pay
		// for whatever work no send covered.
		flushAll()
		if owed > 0 {
			w.Compute(owed)
		}
	})

	return func() error {
		want := Sequential(cfg)
		det := 0
		for _, d := range determined {
			det += d
		}
		if det != cfg.N {
			return fmt.Errorf("ra: only %d of %d positions determined", det, cfg.N)
		}
		for v := range want {
			if vals[v] != want[v] {
				return fmt.Errorf("ra: position %d = %v, want %v", v, vals[v], want[v])
			}
		}
		return nil
	}
}
