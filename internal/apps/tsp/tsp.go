// Package tsp implements the Traveling Salesman application of the paper
// (Section 4.2): branch-and-bound search with master/worker parallelism and
// a dynamic load-balancing scheme built on a job queue in a shared object.
//
// As in the paper's experiments, the global pruning bound is fixed in
// advance (to the optimal tour length) to keep the search deterministic:
// the amount of work is then independent of execution order, which makes
// "total nodes expanded" an exact cross-variant invariant.
//
// Original program: one central FIFO job queue on the master's machine, so
// with four clusters about 75% of the job fetches cross the WAN. Optimized
// program: one queue per cluster with the jobs divided statically — each
// cluster's queue owner generates its own share locally, so almost no
// intercluster traffic remains.
package tsp

import (
	"fmt"
	"math/bits"
	"time"

	"albatross/internal/apps/memo"
	"albatross/internal/core"
	"albatross/internal/orca"
	"albatross/internal/rng"

	"albatross/internal/cluster"
)

// Config describes one TSP instance.
type Config struct {
	NCities  int           // cities; city 0 is the fixed start
	Seed     uint64        // workload seed
	JobDepth int           // master generates jobs of this prefix length, 1..NCities
	NodeCost time.Duration // virtual CPU time per search-tree node expansion
}

// Default returns the scaled-down stand-in for the paper's 17-city run.
func Default() Config {
	return Config{NCities: 14, Seed: 17, JobDepth: 5, NodeCost: time.Microsecond}
}

// Generate builds a symmetric random distance matrix with weights 1..100,
// laid out row-major in one slice: the distance from i to j is d[i*n+j].
func Generate(cfg Config) []int32 {
	r := rng.New(cfg.Seed)
	n := cfg.NCities
	d := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := int32(1 + r.Intn(100))
			d[i*n+j], d[j*n+i] = w, w
		}
	}
	return d
}

// Result summarizes one search.
type Result struct {
	Best       int32 // shortest complete tour length found
	Expansions int64 // search-tree nodes generated under the fixed bound
}

// dfs explores all completions of the partial path whose last city is last,
// with used the bitmask of visited cities and plen the partial length.
// Nodes with plen exceeding bound are pruned. It returns the number of
// nodes generated and the best complete-tour length found (or Inf). The
// unvisited cities are walked off the mask in ascending order.
func dfs(d []int32, n int, last int, used uint32, plen int32, depth int, bound int32) (int64, int32) {
	row := d[last*n : last*n+n]
	if depth == n {
		total := plen + row[0]
		if total <= bound {
			return 0, total
		}
		return 0, inf
	}
	var exp int64
	best := inf
	for free := ^used & (1<<n - 1); free != 0; free &= free - 1 {
		next := bits.TrailingZeros32(free)
		exp++
		nl := plen + row[next]
		if nl > bound {
			continue
		}
		e, b := dfs(d, n, next, used|1<<next, nl, depth+1, bound)
		exp += e
		if b < best {
			best = b
		}
	}
	return exp, best
}

const inf int32 = 1 << 30

// Optimal is the optimal tour length — the bound every search of the
// instance is fixed to — solved once per Config.
var Optimal = memo.Of(optimal)

// optimal computes the optimal tour length by the Held-Karp dynamic
// program: c[S][j] is the shortest path from city 0 through exactly the
// cities of S, a subset of 1..n-1, ending at j in S. Subsets are visited in
// increasing mask order, so S without j is always filled before S. The
// int32 table holds 2^(n-1)·(n-1) entries, 2^(n-1)·(n-1)·4 bytes: 0.4 MB at
// 14 cities, 4 MB at the paper's 17.
func optimal(cfg Config) int32 {
	d, n := Generate(cfg), cfg.NCities
	if n == 1 {
		return 0
	}
	m := n - 1 // city k+1 is bit k of a subset and column k of its row
	c := make([]int32, (1<<m)*m)
	for s := 1; s < 1<<m; s++ {
		row := c[s*m : s*m+m]
		for js := s; js != 0; js &= js - 1 {
			j := bits.TrailingZeros(uint(js))
			rest := s &^ (1 << j)
			if rest == 0 {
				row[j] = d[j+1]
				continue
			}
			prev, best := c[rest*m:rest*m+m], inf
			for ks := rest; ks != 0; ks &= ks - 1 {
				k := bits.TrailingZeros(uint(ks))
				if l := prev[k] + d[(k+1)*n+j+1]; l < best {
					best = l
				}
			}
			row[j] = best
		}
	}
	best, full := inf, c[(1<<m-1)*m:]
	for j := 0; j < m; j++ {
		if t := full[j] + d[(j+1)*n]; t < best {
			best = t
		}
	}
	return best
}

// job is one unit of work: a path prefix, named by its index in the
// instance's job list, which both variants enumerate in the same order.
type job struct{ idx int }

// jobKey is what a job's search starts from: the prefix's last city and
// length, its visited-city mask and its partial tour length.
type jobKey struct {
	last, depth int
	used        uint32
	plen        int32
}

// jobList is an instance's jobs in generation order and the master's
// expansions generating them.
type jobList struct {
	keys []jobKey
	exp  int64
}

func jobBytes(cfg Config) int { return cfg.JobDepth + 12 }

// jobsFor is the instance's job list, enumerated once per Config and shared
// by the search table and every run's masters.
var jobsFor = memo.Of(genJobs)

// genJobs enumerates the depth-JobDepth prefixes under the fixed bound, in
// a deterministic order, counting the master's own expansions.
func genJobs(cfg Config) jobList {
	d := Generate(cfg)
	bound := Optimal(cfg)
	var jl jobList
	var gen func(last, depth int, used uint32, plen int32)
	gen = func(last, depth int, used uint32, plen int32) {
		if depth == cfg.JobDepth {
			jl.keys = append(jl.keys, jobKey{last: last, depth: depth, used: used, plen: plen})
			return
		}
		for next := 1; next < cfg.NCities; next++ {
			if used&(1<<next) != 0 {
				continue
			}
			jl.exp++
			nl := plen + d[last*cfg.NCities+next]
			if nl > bound {
				continue
			}
			gen(next, depth+1, used|1<<next, nl)
		}
	}
	gen(0, 1, 1, 0)
	return jl
}

// CountJobs reports how many jobs the masters generate at cfg.JobDepth
// under the fixed bound.
func CountJobs(cfg Config) int { return len(jobsFor(cfg).keys) }

// searchesFor holds each job's fixed-bound search, in job order, computed
// once per Config on every core: a search depends only on the instance, so
// a worker's run of a job is a table read plus the virtual time it charges.
var searchesFor = memo.Of(searches)

// searches runs every job's dfs under the fixed bound.
func searches(cfg Config) []Result {
	d, bound, keys := Generate(cfg), Optimal(cfg), jobsFor(cfg).keys
	return memo.Each(len(keys), func(i int) Result {
		k := keys[i]
		exp, best := dfs(d, cfg.NCities, k.last, k.used, k.plen, k.depth, bound)
		return Result{Best: best, Expansions: exp}
	})
}

// Sequential is the reference result the verifier compares against: the
// fold of the search table, the masters' expansions generating the jobs plus
// every job's search, and the best tour any job finds. The search from the
// root that it equals is TestSearchTableFoldDecomposes's oracle.
func Sequential(cfg Config) Result {
	res := Result{Best: inf, Expansions: jobsFor(cfg).exp}
	for _, r := range searchesFor(cfg) {
		res.Expansions += r.Expansions
		res.Best = min(res.Best, r.Best)
	}
	return res
}

// minState is each node's replica of the "current best tour" object.
type minState struct{ best int32 }

// Build sets up the parallel TSP run. optimized selects the per-cluster
// static queues instead of the central queue. The returned verifier checks
// the tour length and the exact expansion-count invariant.
func Build(sys *core.System, cfg Config, optimized bool) func() error {
	if cfg.JobDepth < 1 || cfg.JobDepth > cfg.NCities {
		// No prefix has such a length, so there would be no job and no tour:
		// spawn nothing, so the run ends at once, and let the verifier carry
		// the error.
		return func() error {
			return fmt.Errorf("tsp: JobDepth %d outside [1, NCities=%d]", cfg.JobDepth, cfg.NCities)
		}
	}
	topo := sys.Topo

	minObj := sys.RTS.NewReplicated("global-min", func(cluster.NodeID) any {
		return &minState{best: inf}
	})
	updateMin := func(v int32) orca.Op {
		return orca.Op{Name: "UpdateMin", ArgBytes: 8, ResBytes: 4,
			Apply: func(s any) any {
				st := s.(*minState)
				if v < st.best {
					st.best = v
				}
				return nil
			}}
	}

	workerExp := make([]int64, topo.Compute())
	workerBest := make([]int32, topo.Compute())

	jobs, table := jobsFor(cfg), searchesFor(cfg)

	// runJob executes one job on worker w, charging its search time.
	runJob := func(w *core.Worker, j job) {
		r := table[j.idx]
		workerExp[w.Rank()] += r.Expansions
		w.Compute(time.Duration(r.Expansions) * cfg.NodeCost)
		if r.Best < workerBest[w.Rank()] {
			workerBest[w.Rank()] = r.Best
		}
		// Publish strictly better tours to the replicated minimum, like
		// the paper's program (reads of the minimum are local and free).
		if cur := minObj.Replica(w.Node).(*minState).best; r.Best < cur {
			w.Invoke(minObj, updateMin(r.Best))
		}
	}

	workerLoop := func(w *core.Worker, pop func() (any, bool, bool)) {
		workerBest[w.Rank()] = inf
		for {
			jv, ok, closed := pop()
			if ok {
				runJob(w, jv.(job))
				continue
			}
			if closed {
				return
			}
			w.P.Sleep(200 * time.Microsecond)
		}
	}

	if !optimized {
		q := core.NewCentralQueue(sys, 0)
		sys.SpawnAt(0, "tsp-master", func(w *core.Worker) {
			for i := range jobs.keys {
				q.Push(w, jobBytes(cfg), job{idx: i})
			}
			w.Compute(time.Duration(jobs.exp) * cfg.NodeCost)
			q.Close(w)
		})
		sys.SpawnWorkers("tsp", func(w *core.Worker) {
			workerLoop(w, func() (any, bool, bool) { return q.Pop(w, jobBytes(cfg)) })
		})
	} else {
		q := core.NewClusterQueues(sys)
		// Static division: each cluster's queue owner enumerates the same
		// deterministic job list and keeps every C'th job, so no job ever
		// crosses the WAN during distribution.
		for c := 0; c < topo.Clusters; c++ {
			c := c
			sys.SpawnAt(topo.Node(c, 0), fmt.Sprintf("tsp-master-%d", c), func(w *core.Worker) {
				for i := c; i < len(jobs.keys); i += topo.Clusters {
					q.PushTo(w, c, jobBytes(cfg), job{idx: i})
				}
				w.Compute(time.Duration(jobs.exp) * cfg.NodeCost)
				q.Close(w, c) // each master closes only its own queue
			})
		}
		sys.SpawnWorkers("tsp", func(w *core.Worker) {
			workerLoop(w, func() (any, bool, bool) { return q.Pop(w, jobBytes(cfg)) })
		})
	}

	return func() error {
		want := Sequential(cfg)
		var exp int64
		best := inf
		for r := range workerExp {
			exp += workerExp[r]
			if workerBest[r] < best {
				best = workerBest[r]
			}
		}
		exp += jobs.exp // the expansions generating the jobs, counted once
		if best != want.Best || exp != want.Expansions {
			return fmt.Errorf("tsp: best %d and %d expansions, want %d and %d", best, exp, want.Best, want.Expansions)
		}
		for i := 0; i < topo.Compute(); i++ {
			if got := minObj.Replica(cluster.NodeID(i)).(*minState).best; got != want.Best {
				return fmt.Errorf("tsp: replica %d min %d, want %d", i, got, want.Best)
			}
		}
		return nil
	}
}
