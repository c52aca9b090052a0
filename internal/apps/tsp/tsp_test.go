package tsp

import (
	"runtime"
	"slices"
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

// TestSequentialGolden pins the default instance's bound and search size:
// a cheaper dfs must count the same nodes.
func TestSequentialGolden(t *testing.T) {
	want := Result{Best: 237, Expansions: 13037406}
	if got := sequential(Default()); got != want {
		t.Fatalf("sequential(Default()) = %+v, want %+v", got, want)
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
