package asp

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/rng"
)

func testCfg() Config {
	return Config{N: 48, Seed: 7, OpCost: 500 * time.Nanosecond}
}

func run(t *testing.T, clusters, npc int, optimized bool, cfg Config) core.Metrics {
	t.Helper()
	sys := core.NewSystem(core.Config{
		Topology:  cluster.DAS(clusters, npc),
		Params:    cluster.DASParams(),
		Sequencer: Sequencer(optimized),
	})
	verify := Build(sys, cfg)
	m, err := sys.Run()
	if err != nil {
		t.Fatalf("run %dx%d opt=%v: %v", clusters, npc, optimized, err)
	}
	if err := verify(); err != nil {
		t.Fatalf("verify %dx%d opt=%v: %v", clusters, npc, optimized, err)
	}
	return m
}

func TestCorrectAcrossShapes(t *testing.T) {
	cfg := testCfg()
	for _, sh := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {2, 3}, {4, 2}} {
		for _, opt := range []bool{false, true} {
			run(t, sh[0], sh[1], opt, cfg)
		}
	}
}

func TestRaggedRowDistribution(t *testing.T) {
	// N=50 over 6 procs exercises uneven blocks.
	cfg := Config{N: 50, Seed: 3, OpCost: 200 * time.Nanosecond}
	run(t, 2, 3, false, cfg)
}

func TestRowRangeCoversAllRows(t *testing.T) {
	for _, n := range []int{1, 7, 50, 256} {
		for _, p := range []int{1, 3, 8, 60} {
			covered := 0
			prevHi := 0
			for r := 0; r < p; r++ {
				lo, hi := core.Block(n, p, r)
				if lo != prevHi {
					t.Fatalf("gap at rank %d (n=%d p=%d)", r, n, p)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("covered %d of %d rows (p=%d)", covered, n, p)
			}
		}
	}
}

func TestSpeedupSingleCluster(t *testing.T) {
	cfg := Config{N: 64, Seed: 7, OpCost: 2 * time.Microsecond}
	t1 := run(t, 1, 1, false, cfg).Elapsed
	t8 := run(t, 1, 8, false, cfg).Elapsed
	sp := float64(t1) / float64(t8)
	if sp < 4 {
		t.Fatalf("8-proc speedup %.2f too low", sp)
	}
}

func TestOptimizedBeatsOriginalOnFourClusters(t *testing.T) {
	cfg := testCfg()
	orig := run(t, 4, 4, false, cfg).Elapsed
	opt := run(t, 4, 4, true, cfg).Elapsed
	if float64(opt)*1.5 > float64(orig) {
		t.Fatalf("optimized (%v) not clearly faster than original (%v)", opt, orig)
	}
}

func TestBroadcastCountIsN(t *testing.T) {
	cfg := testCfg()
	m := run(t, 2, 2, false, cfg)
	if m.Ops.Bcasts != int64(cfg.N) {
		t.Fatalf("bcasts %d, want %d", m.Ops.Bcasts, cfg.N)
	}
}

func TestSequentialSelfConsistent(t *testing.T) {
	cfg := testCfg()
	d := Sequential(cfg)
	n := cfg.N
	// Triangle inequality must hold at the fixpoint.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k += 7 {
				if d[i][k] < Inf && d[k][j] < Inf && d[i][j] > d[i][k]+d[k][j] {
					t.Fatalf("triangle violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// floydWarshall is the textbook triple loop, written out here so the oracle
// shares no code with relax: Sequential and the workers both call relax, so
// the run verifier alone could not notice a wrong one.
func floydWarshall(d [][]int32) {
	n := len(d)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := d[i][k] + d[k][j]; d[i][k] < Inf && v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
}

func TestSequentialEqualsFloydWarshall(t *testing.T) {
	// Sizes that are not multiples of the unroll width; at 25% edge density
	// most entries of the input rows are Inf.
	for _, cfg := range []Config{{N: 37, Seed: 5}, {N: 130, Seed: 11}, {N: 3, Seed: 1}} {
		want := Generate(cfg)
		hasInf := false
		for _, v := range want[0] {
			hasInf = hasInf || v == Inf
		}
		if cfg.N > 3 && !hasInf {
			t.Fatalf("N=%d: input row 0 has no Inf entry", cfg.N)
		}
		floydWarshall(want)
		got := Sequential(cfg)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("N=%d: d[%d][%d] = %d, Floyd-Warshall says %d", cfg.N, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestRelaxMatchesReference(t *testing.T) {
	r := rng.New(99)
	entry := func() int32 {
		if r.Intn(3) == 0 {
			return Inf
		}
		return int32(r.Intn(300))
	}
	for trial := 0; trial < 2000; trial++ {
		n := trial % 68
		ri, rk := make([]int32, n), make([]int32, n+r.Intn(3)) // rk may be longer, never shorter
		for j := range ri {
			ri[j] = entry()
		}
		for j := range rk {
			rk[j] = entry()
		}
		dik := entry()
		want := append([]int32(nil), ri...)
		for j := range want {
			if v := dik + rk[j]; dik < Inf && v < want[j] {
				want[j] = v
			}
		}
		relax(ri, rk, dik)
		for j := range want {
			if ri[j] != want[j] {
				t.Fatalf("trial %d (len %d, dik %d): ri[%d] = %d, want %d", trial, n, dik, j, ri[j], want[j])
			}
		}
	}
}

// BenchmarkRelax is the app-kernel rung for ASP: one relaxation of a row of
// Default().N columns against a pivot row.
func BenchmarkRelax(b *testing.B) {
	d := Generate(Default())
	ri, rk := d[1], d[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relax(ri, rk, 7)
	}
}
