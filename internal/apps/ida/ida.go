package ida

import (
	"fmt"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/cluster"
	"albatross/internal/coll"
	"albatross/internal/core"
	"albatross/internal/orca"
)

// Config describes one IDA* run.
type Config struct {
	Walk       int           // scramble walk length (bounds the optimal depth)
	Seed       uint64        // instance seed
	Jobs       int           // size of the fixed initial job frontier
	ExpandCost time.Duration // virtual CPU time per node expansion
}

// Default returns the scaled-down stand-in for the paper's random
// 15-puzzle instances.
func Default() Config {
	return Config{Walk: 60, Seed: 4, Jobs: 2048, ExpandCost: time.Microsecond}
}

// job is one frontier node searched as a unit; idx is its place in the
// frontier (an int32 keeps the boxed job in its 48-byte size class).
type job struct {
	b   Board
	g   int
	h   int
	lm  int8
	idx int32
}

const jobBytes = 24

// search runs the job's bounded DFS under the threshold on a private copy
// of its board; a job already beyond the threshold only reports its f.
func (j job) search(threshold int) searchResult {
	res := searchResult{next: infThreshold}
	if f := j.g + j.h; f > threshold {
		res.next = f
	} else {
		boundedDFS(&j.b, j.g, j.h, j.lm, threshold, &res)
	}
	return res
}

// frontier is the instance's fixed job set, expanded once per Config and
// shared read-only by every run and the search table.
var frontier = memo.Of(expandFrontier)

// expandFrontier expands the instance root breadth-first (without undoing
// the previous move, no duplicate detection — plain IDA* semantics) until at
// least cfg.Jobs nodes exist. The expansion is deterministic and
// independent of the processor count, so job sets are identical across all
// configurations.
func expandFrontier(cfg Config) []job {
	root := Scramble(cfg.Walk, cfg.Seed)
	cur := []job{{b: root, g: 0, h: manhattan(&root), lm: -1}}
	for len(cur) < cfg.Jobs {
		var next []job
		for _, j := range cur {
			if j.h == 0 && j.b.IsGoal() {
				// Trivial instance: keep the goal node as a job; the
				// searches will find the solution immediately.
				next = append(next, j)
				continue
			}
			for d := int8(0); d < 4; d++ {
				if j.lm >= 0 && d == reverse[j.lm] {
					continue
				}
				if !canMove(j.b.blank, d) {
					continue
				}
				nb := j.b
				dh := nb.apply(d)
				next = append(next, job{b: nb, g: j.g + 1, h: j.h + dh, lm: d})
			}
		}
		if len(next) == len(cur) {
			break // cannot grow further (degenerate)
		}
		cur = next
	}
	for i := range cur {
		cur[i].idx = int32(i)
	}
	return cur
}

// Result summarizes one run.
type Result struct {
	Optimal    int   // solution length found
	Solutions  int64 // number of solutions at that threshold
	Expansions int64 // total bounded-DFS expansions over all iterations
}

// Sequential is the reference result the verifier compares against: the
// fold of the search table, every row's expansions and the last row's
// solutions, found at that row's threshold (-1 when the last row exhausts the
// instance instead). The threshold loop over the frontier that it equals is
// TestSearchTableMatchesOracle's oracle.
func Sequential(cfg Config) Result {
	root := Scramble(cfg.Walk, cfg.Seed)
	res, threshold := Result{Optimal: -1}, manhattan(&root)
	for _, row := range searchesFor(cfg) {
		next := infThreshold
		for _, r := range row {
			res.Expansions += r.expansions
			res.Solutions += r.solutions
			next = min(next, r.next)
		}
		if res.Solutions > 0 {
			res.Optimal = threshold
		}
		threshold = next
	}
	return res
}

// searchesFor holds, per iteration, every frontier job's bounded search, in
// frontier order, computed once per Config on every core: row k is searched
// under the threshold every worker reaches after k iteration allreduces, and
// the last row is the one that finds a solution or exhausts the instance. A
// search depends only on the frontier and the threshold, so a worker's run of
// a job is a table read plus the virtual time it charges.
var searchesFor = memo.Of(searches)

// searches fills the rows, one iteration at a time, each row's minimum next
// threshold setting the following row's.
func searches(cfg Config) [][]searchResult {
	jobs := frontier(cfg)
	root := Scramble(cfg.Walk, cfg.Seed)
	var rows [][]searchResult
	for threshold := manhattan(&root); ; {
		row := memo.Each(len(jobs), func(i int) searchResult { return jobs[i].search(threshold) })
		rows = append(rows, row)
		next, sols := infThreshold, int64(0)
		for _, res := range row {
			next, sols = min(next, res.next), sols+res.solutions
		}
		if sols > 0 || next >= infThreshold {
			return rows
		}
		threshold = next
	}
}

// queueState is one worker's local job queue (a shared object owned by that
// worker's node, so remote steals are RPCs and local pops are free).
type queueState struct{ jobs []job }

func popLocalOp() orca.Op {
	return orca.Op{Name: "PopLocal", ArgBytes: 4, ResBytes: jobBytes,
		Apply: func(s any) any {
			q := s.(*queueState)
			if len(q.jobs) == 0 {
				return nil
			}
			j := q.jobs[len(q.jobs)-1]
			q.jobs = q.jobs[:len(q.jobs)-1]
			return j
		}}
}

func stealOp() orca.Op {
	return orca.Op{Name: "Steal", ArgBytes: 8, ResBytes: jobBytes,
		Apply: func(s any) any {
			q := s.(*queueState)
			if len(q.jobs) == 0 {
				return nil
			}
			j := q.jobs[0]
			q.jobs = q.jobs[1:]
			return j
		}}
}

func pushOp(j job) orca.Op {
	return orca.Op{Name: "Push", ArgBytes: jobBytes, ResBytes: 4,
		Apply: func(s any) any {
			q := s.(*queueState)
			q.jobs = append(q.jobs, j)
			return nil
		}}
}

// idleState is each node's replica of the idle map (fed by the termination
// detection broadcasts the paper describes).
type idleState struct{ m *core.IdleMap }

func setIdleOp(rank int, idle bool) orca.Op {
	return orca.Op{Name: "SetIdle", ArgBytes: 8, ResBytes: 4,
		Apply: func(s any) any {
			s.(*idleState).m.Set(rank, idle)
			return nil
		}}
}

// Policy selects the work-stealing refinements independently, for the
// ablation study; the paper's optimized program enables both.
type Policy struct {
	LocalFirst   bool // steal inside the own cluster first
	RememberIdle bool // skip victims the idle map marks empty
}

// Build sets up the parallel IDA* run; optimized selects the local-first
// steal order and the "remember empty" heuristic. The verifier checks the
// solution length, solution count and the exact expansion-count invariant.
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	if optimized {
		return BuildPolicy(sys, cfg, Policy{LocalFirst: true, RememberIdle: true})
	}
	return BuildPolicy(sys, cfg, Policy{})
}

// BuildPolicy sets up the run with an explicit stealing policy.
func BuildPolicy(sys *core.System, cfg Config, pol Policy) func() error {
	p := sys.Topo.Compute()
	topo := sys.Topo

	jobs := frontier(cfg)
	root := Scramble(cfg.Walk, cfg.Seed)

	queues := make([]*orca.Object, p)
	for r := 0; r < p; r++ {
		queues[r] = sys.RTS.NewObject(fmt.Sprintf("ida-queue-%d", r), cluster.NodeID(r), &queueState{})
	}
	idleObj := sys.RTS.NewReplicated("ida-idle", func(cluster.NodeID) any {
		return &idleState{m: core.NewIdleMap(p)}
	})

	stealOrder := make([][]cluster.NodeID, p)
	for r := 0; r < p; r++ {
		if pol.LocalFirst {
			stealOrder[r] = core.StealOrderLocalFirst(topo, cluster.NodeID(r))
		} else {
			stealOrder[r] = core.StealOrderOriginal(topo, cluster.NodeID(r))
		}
	}

	// Per-worker tallies (each slot written only by its own worker) and the
	// iteration allreduce deciding continuation. No shared counters remain:
	// the work phase ends when the replicated idle map shows every worker
	// idle (see the loop below for why that is sound), and the iteration
	// decision comes from an allreduce folding every worker's
	// (min next-threshold, solutions found).
	workerExp := make([]int64, p)
	workerSols := make([]int64, p)
	foundOptimal := -1 // written by rank 0 only, read after the run
	iter := coll.New(sys, "ida-iter", coll.WideArea)

	rows := searchesFor(cfg)

	sys.SpawnWorkers("ida", func(w *core.Worker) {
		r := w.Rank()
		myIdle := false
		threshold := manhattan(&root) // evolves identically on every worker
		for iteration := 0; ; iteration++ {
			myNext := infThreshold
			var mySols int64
			if myIdle {
				// Termination-detection broadcast: active again (the paper's
				// workers announce both transitions).
				myIdle = false
				w.Invoke(idleObj, setIdleOp(r, false))
			}
			// Refill the own queue with the static share of the frontier
			// (deterministic, generated locally — no distribution traffic).
			for i := r; i < len(jobs); i += p {
				w.Invoke(queues[r], pushOp(jobs[i]))
			}

			runJob := func(j job) {
				res := rows[iteration][j.idx]
				w.Compute(time.Duration(res.expansions) * cfg.ExpandCost)
				workerExp[r] += res.expansions
				mySols += res.solutions
				if res.next < myNext {
					myNext = res.next
				}
			}

			for {
				if v := w.Invoke(queues[r], popLocalOp()); v != nil {
					if myIdle {
						myIdle = false
						w.Invoke(idleObj, setIdleOp(r, false))
					}
					runJob(v.(job))
					continue
				}
				// Own queue empty: one sweep over the victims.
				stole := false
				for _, victim := range stealOrder[r] {
					if pol.RememberIdle && idleObj.Replica(w.Node).(*idleState).m.Idle(int(victim)) {
						continue // "remember empty": skip known-idle victims
					}
					if v := w.Invoke(queues[int(victim)], stealOp()); v != nil {
						if myIdle {
							myIdle = false
							w.Invoke(idleObj, setIdleOp(r, false))
						}
						runJob(v.(job))
						stole = true
						break
					}
				}
				if stole {
					continue
				}
				if !myIdle {
					// Termination-detection broadcast: we are out of work.
					myIdle = true
					w.Invoke(idleObj, setIdleOp(r, true))
				}
				// The idle map itself decides the phase end, as the paper's
				// program does: every idle broadcast was sent by a worker
				// whose queue was empty, queues only shrink during the work
				// phase (refills are the only pushes), and broadcasts are
				// totally ordered — so a replica showing all workers idle
				// proves every queue has drained for good.
				if idleObj.Replica(w.Node).(*idleState).m.AllIdle() {
					break
				}
				w.P.Sleep(300 * time.Microsecond)
			}

			workerSols[r] += mySols
			tot := iter.AllReduce(w, 16, iterStats{next: myNext, sols: mySols}, foldIter).(iterStats)
			if tot.sols > 0 {
				if r == 0 {
					foundOptimal = threshold
				}
				return
			}
			if tot.next >= infThreshold {
				return // unsolvable: foundOptimal stays -1, like Sequential
			}
			threshold = tot.next
		}
	})

	return func() error {
		want := Sequential(cfg)
		var totalExp, totalSols int64
		for r := 0; r < p; r++ {
			totalExp += workerExp[r]
			totalSols += workerSols[r]
		}
		if foundOptimal != want.Optimal {
			return fmt.Errorf("ida: optimal %d, want %d", foundOptimal, want.Optimal)
		}
		if totalSols != want.Solutions {
			return fmt.Errorf("ida: %d solutions, want %d", totalSols, want.Solutions)
		}
		if totalExp != want.Expansions {
			return fmt.Errorf("ida: %d expansions, want %d", totalExp, want.Expansions)
		}
		return nil
	}
}

// iterStats is one worker's contribution to the iteration allreduce.
type iterStats struct {
	next int   // smallest next-threshold candidate seen by this worker
	sols int64 // solutions found by this worker at the current threshold
}

// foldIter combines iteration contributions: minimum next, summed solutions.
func foldIter(acc, v any) any {
	t := v.(iterStats)
	if acc == nil {
		return t
	}
	a := acc.(iterStats)
	if t.next < a.next {
		a.next = t.next
	}
	a.sols += t.sols
	return a
}
