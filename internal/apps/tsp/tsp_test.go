package tsp

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

func testCfg() Config {
	return Config{NCities: 10, Seed: 5, JobDepth: 2, NodeCost: 2 * time.Microsecond}
}

func run(t *testing.T, clusters, npc int, optimized bool, cfg Config) core.Metrics {
	t.Helper()
	sys := core.NewSystem(core.Config{
		Topology: cluster.DAS(clusters, npc),
		Params:   cluster.DASParams(),
	})
	verify := Build(sys, cfg, optimized)
	m, err := sys.Run()
	if err != nil {
		t.Fatalf("run %dx%d opt=%v: %v", clusters, npc, optimized, err)
	}
	if err := verify(); err != nil {
		t.Fatalf("verify %dx%d opt=%v: %v", clusters, npc, optimized, err)
	}
	return m
}

func TestOptimalBruteForceSmall(t *testing.T) {
	// Cross-check Optimal against explicit enumeration on 8 cities.
	cfg := Config{NCities: 8, Seed: 9}
	d, n := Generate(cfg), cfg.NCities
	best := inf
	perm := []int{1, 2, 3, 4, 5, 6, 7}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			l := d[perm[0]]
			for i := 1; i < len(perm); i++ {
				l += d[perm[i-1]*n+perm[i]]
			}
			l += d[perm[len(perm)-1]*n]
			if l < best {
				best = l
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if got := Optimal(cfg); got != best {
		t.Fatalf("Optimal %d, want %d", got, best)
	}
}

// branchAndBound is the oracle for Optimal: an unbounded depth-first
// branch-and-bound over every tour from city 0, pruning a path once it is no
// shorter than the best complete tour found.
func branchAndBound(cfg Config) int32 {
	d, n := Generate(cfg), cfg.NCities
	best := inf
	var solve func(last int, used uint32, plen int32, depth int)
	solve = func(last int, used uint32, plen int32, depth int) {
		if plen >= best {
			return
		}
		if depth == n {
			if t := plen + d[last*n]; t < best {
				best = t
			}
			return
		}
		for next := 1; next < n; next++ {
			if used&(1<<next) == 0 {
				solve(next, used|1<<next, plen+d[last*n+next], depth+1)
			}
		}
	}
	solve(0, 1, 0, 1)
	return best
}

// TestOptimalCertificate: on sizes 1 to 14 at three seeds each, and on every
// instance the repository runs, Optimal equals the branch-and-bound oracle,
// the fixed-bound search under it finds a tour of exactly that length, and
// under one less finds no tour at all.
func TestOptimalCertificate(t *testing.T) {
	cfgs := []Config{
		Default(), testCfg(),
		{NCities: 8, Seed: 9},   // TestOptimalBruteForceSmall
		{NCities: 11, Seed: 5},  // TestOptimizedCutsInterclusterRPCs and others
		{NCities: 11, Seed: 31}, // TestRunLeavesNoGoroutine
		{NCities: 11, Seed: 37}, // TestBuildWithoutRunLeavesNoGoroutine
		{NCities: 12, Seed: 17}, // examples/quickstart
	}
	for n := 1; n <= 14; n++ {
		for _, seed := range []uint64{1, 2, 3} {
			cfgs = append(cfgs, Config{NCities: n, Seed: seed})
		}
	}
	for _, cfg := range cfgs {
		opt := Optimal(cfg)
		if want := branchAndBound(cfg); opt != want {
			t.Errorf("%d cities, seed %d: Optimal %d, branch-and-bound %d", cfg.NCities, cfg.Seed, opt, want)
			continue
		}
		d, n := Generate(cfg), cfg.NCities
		if _, best := dfs(d, n, 0, 1, 0, 1, opt); best != opt {
			t.Errorf("%d cities, seed %d: search under %d finds best %d", n, cfg.Seed, opt, best)
		}
		if _, best := dfs(d, n, 0, 1, 0, 1, opt-1); best != inf {
			t.Errorf("%d cities, seed %d: search under %d finds a tour of %d", n, cfg.Seed, opt-1, best)
		}
	}
}

func TestSequentialFindsOptimal(t *testing.T) {
	cfg := testCfg()
	r := Sequential(cfg)
	if r.Best != Optimal(cfg) {
		t.Fatalf("sequential best %d, optimal %d", r.Best, Optimal(cfg))
	}
	if r.Expansions <= 0 {
		t.Fatal("no expansions counted")
	}
}

// defaultGolden is the default instance's bound and search size: a cheaper
// dfs must count the same nodes.
var defaultGolden = Result{Best: 237, Expansions: 13037406}

// TestSequentialGolden: on the default instance the verifier's reference,
// the fold of the search table, is the golden.
func TestSequentialGolden(t *testing.T) {
	if got := Sequential(Default()); got != defaultGolden {
		t.Fatalf("Sequential(Default()) = %+v, want %+v", got, defaultGolden)
	}
}

// rootSearch is the oracle for Sequential: the fixed-bound search from the
// root on one processor, with no job list in between.
func rootSearch(cfg Config) Result {
	exp, best := dfs(Generate(cfg), cfg.NCities, 0, 1, 0, 1, Optimal(cfg))
	return Result{Best: best, Expansions: exp}
}

// TestSearchTableFoldDecomposes: the search from the root equals the golden
// on the default instance, and the fold of the job list and the search table
// on every instance of 3 to 10 cities, at every job depth and three seeds.
func TestSearchTableFoldDecomposes(t *testing.T) {
	if got := rootSearch(Default()); got != defaultGolden {
		t.Fatalf("rootSearch(Default()) = %+v, want %+v", got, defaultGolden)
	}
	for n := 3; n <= 10; n++ {
		for depth := 1; depth <= n; depth++ {
			for _, seed := range []uint64{1, 2, 3} {
				cfg := Config{NCities: n, Seed: seed, JobDepth: depth}
				if fold, want := Sequential(cfg), rootSearch(cfg); fold != want {
					t.Errorf("%+v: the fold %+v, the search from the root %+v", cfg, fold, want)
				}
			}
		}
	}
}

// TestJobDepthOutOfRange: a job depth outside [1, NCities] yields no job, so
// the fold would find no tour where the search from the root finds one.
// Build refuses it: the run spawns nothing and the verifier names the field.
func TestJobDepthOutOfRange(t *testing.T) {
	for _, depth := range []int{-1, 0, 4} {
		cfg := Config{NCities: 3, Seed: 3, JobDepth: depth, NodeCost: time.Microsecond}
		sys := core.NewSystem(core.Config{Topology: cluster.DAS(1, 2), Params: cluster.DASParams()})
		verify := Build(sys, cfg, false)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("JobDepth %d: run: %v", depth, err)
		}
		if err := verify(); err == nil || !strings.Contains(err.Error(), "JobDepth") {
			t.Errorf("JobDepth %d: verifier error %v, want one naming JobDepth", depth, err)
		}
	}
}

func TestCorrectAcrossShapes(t *testing.T) {
	cfg := testCfg()
	for _, sh := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {4, 2}} {
		for _, opt := range []bool{false, true} {
			run(t, sh[0], sh[1], opt, cfg)
		}
	}
}

func TestOptimizedCutsInterclusterRPCs(t *testing.T) {
	cfg := Config{NCities: 11, Seed: 5, JobDepth: 3, NodeCost: time.Microsecond}
	orig := run(t, 4, 3, false, cfg)
	opt := run(t, 4, 3, true, cfg)
	if opt.Net.InterRPC().Msgs*5 > orig.Net.InterRPC().Msgs {
		t.Fatalf("optimized inter RPCs %d vs original %d: no reduction",
			opt.Net.InterRPC().Msgs, orig.Net.InterRPC().Msgs)
	}
	if float64(opt.Elapsed)*1.1 > float64(orig.Elapsed) {
		t.Fatalf("optimized (%v) not faster than original (%v)", opt.Elapsed, orig.Elapsed)
	}
}

func TestSpeedupSingleCluster(t *testing.T) {
	cfg := Config{NCities: 11, Seed: 5, JobDepth: 3, NodeCost: 2 * time.Microsecond}
	t1 := run(t, 1, 1, false, cfg).Elapsed
	t8 := run(t, 1, 8, false, cfg).Elapsed
	if sp := float64(t1) / float64(t8); sp < 4 {
		t.Fatalf("8-proc speedup %.2f too low", sp)
	}
}

func TestDeterministicExpansions(t *testing.T) {
	cfg := testCfg()
	a := run(t, 2, 2, false, cfg)
	b := run(t, 2, 2, false, cfg)
	if a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic run times %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestSearchTableMatchesLoop: the unmemoized table fill, on one core and on
// four, equals each job's dfs run in a plain loop.
func TestSearchTableMatchesLoop(t *testing.T) {
	cfg := Config{NCities: 11, Seed: 5, JobDepth: 3, NodeCost: time.Microsecond}
	d, bound := Generate(cfg), Optimal(cfg)
	var want []Result
	for _, k := range jobsFor(cfg).keys {
		exp, best := dfs(d, cfg.NCities, k.last, k.used, k.plen, k.depth, bound)
		want = append(want, Result{Best: best, Expansions: exp})
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := searches(cfg)
		runtime.GOMAXPROCS(prev)
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: the table differs from the loop", procs)
		}
	}
}

// TestRunLeavesNoGoroutine: a run whose Build fills a fresh search table on
// four cores returns with every goroutine it started gone — the fill's
// helpers, the processes and the daemon servers.
func TestRunLeavesNoGoroutine(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	run(t, 2, 3, false, Config{NCities: 11, Seed: 31, JobDepth: 3, NodeCost: time.Microsecond})
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestBuildWithoutRunLeavesNoGoroutine: a Build that fills a fresh search
// table on four cores, on a System that is never run, leaves no goroutine
// behind — the fill's helpers are gone when Build returns, and processes
// start only with Run.
func TestBuildWithoutRunLeavesNoGoroutine(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(2, 3), Params: cluster.DASParams()})
	Build(sys, Config{NCities: 11, Seed: 37, JobDepth: 3, NodeCost: time.Microsecond}, false)
	// A fill helper has called Done before it exits: give it a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Build, %d before", runtime.NumGoroutine(), before)
		}
	}
}
