package water

import (
	"math"
	"slices"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

func testCfg() Config {
	return Config{N: 48, Iters: 2, Seed: 3, PairCost: 2 * time.Microsecond, DT: 1e-4}
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

func TestTooManyProcsPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "water: 8 processors need at least one molecule each (N=4)" {
			t.Fatalf("panic %v", r)
		}
	}()
	cfg := testCfg()
	cfg.N = 4
	Build(core.NewDAS(2, 4), cfg, false)
}

func TestHalfShellCoversEveryPairOnce(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8, 9, 16} {
		seen := make(map[[2]int]int)
		for i := 0; i < p; i++ {
			for _, q := range targets(p, i) {
				a, b := i, q
				if a > b {
					a, b = b, a
				}
				seen[[2]int{a, b}]++
			}
		}
		want := p * (p - 1) / 2
		if len(seen) != want {
			t.Fatalf("p=%d: %d block pairs covered, want %d", p, len(seen), want)
		}
		for pair, n := range seen {
			if n != 1 {
				t.Fatalf("p=%d: pair %v covered %d times", p, pair, n)
			}
		}
	}
}

func TestSendersInverseOfTargets(t *testing.T) {
	// senders is a closed form that never calls targets: hold it to the
	// definition, j in senders(p, i) iff i in targets(p, j), ascending.
	for p := 1; p <= 130; p++ {
		targeted := make([][]int, p) // targeted[i]: the j whose targets hold i, ascending
		for j := 0; j < p; j++ {
			for _, i := range targets(p, j) {
				targeted[i] = append(targeted[i], j)
			}
		}
		for i := 0; i < p; i++ {
			if got := senders(p, i); !slices.Equal(got, targeted[i]) {
				t.Fatalf("p=%d: senders(%d) = %v, targets say %v", p, i, got, targeted[i])
			}
		}
	}
}

func TestMomentumConservation(t *testing.T) {
	// Newton's third law: total force is zero, so total momentum stays 0.
	cfg := testCfg()
	pos := initMolecules(cfg)
	f := make([]Vec, cfg.N)
	internalStep(pos, 0, cfg.N, f)
	var sum Vec
	for i := range f {
		for k := 0; k < 3; k++ {
			sum[k] += f[i][k]
		}
	}
	for k := 0; k < 3; k++ {
		if math.Abs(sum[k]) > 1e-9 {
			t.Fatalf("net force component %d = %g", k, sum[k])
		}
	}
}

func TestCorrectAcrossShapes(t *testing.T) {
	cfg := testCfg()
	for _, sh := range [][2]int{{1, 1}, {1, 4}, {1, 5}, {2, 2}, {2, 3}, {4, 2}} {
		for _, opt := range []bool{false, true} {
			run(t, sh[0], sh[1], opt, cfg)
		}
	}
}

func TestOptimizedCutsInterclusterTraffic(t *testing.T) {
	cfg := Config{N: 96, Iters: 2, Seed: 3, PairCost: 2 * time.Microsecond, DT: 1e-4}
	orig := run(t, 4, 4, false, cfg)
	opt := run(t, 4, 4, true, cfg)
	ob := orig.Net.TotalInter().Bytes
	nb := opt.Net.TotalInter().Bytes
	if float64(nb) > 0.7*float64(ob) {
		t.Fatalf("intercluster bytes: opt %d vs orig %d, no clear reduction", nb, ob)
	}
	if opt.Elapsed >= orig.Elapsed {
		t.Fatalf("optimized (%v) not faster than original (%v)", opt.Elapsed, orig.Elapsed)
	}
}

func TestSpeedupSingleCluster(t *testing.T) {
	cfg := Config{N: 128, Iters: 2, Seed: 3, PairCost: 4 * time.Microsecond, DT: 1e-4}
	t1 := run(t, 1, 1, false, cfg).Elapsed
	t8 := run(t, 1, 8, false, cfg).Elapsed
	if sp := float64(t1) / float64(t8); sp < 4 {
		t.Fatalf("8-proc speedup %.2f too low", sp)
	}
}

func TestOptionMatrixAllCorrect(t *testing.T) {
	cfg := testCfg()
	for _, opts := range []Options{
		{}, {Cache: true}, {Reduce: true}, {Cache: true, Reduce: true},
	} {
		sys := core.NewSystem(core.Config{
			Topology: cluster.DAS(2, 3),
			Params:   cluster.DASParams(),
		})
		verify := BuildVariant(sys, cfg, opts)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := verify(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
}

func TestEachOptionReducesInterclusterBytes(t *testing.T) {
	cfg := Config{N: 96, Iters: 2, Seed: 3, PairCost: 2 * time.Microsecond, DT: 1e-4}
	bytes := func(opts Options) int64 {
		sys := core.NewSystem(core.Config{
			Topology: cluster.DAS(4, 4),
			Params:   cluster.DASParams(),
		})
		verify := BuildVariant(sys, cfg, opts)
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(); err != nil {
			t.Fatal(err)
		}
		return m.Net.TotalInter().Bytes
	}
	orig := bytes(Options{})
	cacheOnly := bytes(Options{Cache: true})
	reduceOnly := bytes(Options{Reduce: true})
	both := bytes(Options{Cache: true, Reduce: true})
	if cacheOnly >= orig || reduceOnly >= orig {
		t.Fatalf("individual options did not reduce traffic: orig=%d cache=%d reduce=%d", orig, cacheOnly, reduceOnly)
	}
	if both >= cacheOnly || both >= reduceOnly {
		t.Fatalf("combined options (%d) not better than individual (%d, %d)", both, cacheOnly, reduceOnly)
	}
}

func TestIrregularClusters(t *testing.T) {
	cfg := testCfg()
	sys := core.NewSystem(core.Config{
		Topology: cluster.Irregular(4, 2, 3),
		Params:   cluster.DASParams(),
	})
	verify := Build(sys, cfg, true)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
}
