package ida

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/rng"
)

func testCfg() Config {
	return Config{Walk: 18, Seed: 4, Jobs: 48, ExpandCost: time.Microsecond}
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

func TestManhattanZeroOnlyAtGoal(t *testing.T) {
	g := Goal()
	if manhattan(&g) != 0 || !g.IsGoal() {
		t.Fatal("goal heuristic broken")
	}
	b := Scramble(10, 1)
	if b.IsGoal() {
		t.Fatal("scramble(10) returned the goal")
	}
	if manhattan(&b) == 0 {
		t.Fatal("manhattan 0 on non-goal board")
	}
}

// TestIncrementalHeuristicMatchesFull walks random legal paths with the
// search's own step — moveTab for the target cell, mdDelta for the heuristic,
// a two-cell swap for the move — and requires the running h to equal a full
// recomputation after every step, and the reverse step to restore the board.
func TestIncrementalHeuristicMatchesFull(t *testing.T) {
	prop := func(seed uint64, steps uint8) bool {
		r := rng.New(seed)
		b := Scramble(int(steps%40), seed)
		h := manhattan(&b)
		for k := 0; k < 64; k++ {
			from, d := b.blank, int8(r.Intn(4))
			to := moveTab[from][d]
			if to < 0 {
				continue
			}
			before, tile := b, b.cells[to]
			h += int(mdDelta[tile][to][from])
			b.cells[from], b.cells[to], b.blank = tile, 0, to
			if h != manhattan(&b) {
				return false
			}
			undone := b
			undone.cells[from], undone.cells[to], undone.blank = 0, tile, from
			if undone != before {
				return false
			}
			// Board.apply is the same step for the frontier and Scramble.
			if viaApply := before; viaApply.apply(d) != int(mdDelta[tile][to][from]) || viaApply != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveTabMatchesCanMove(t *testing.T) {
	for pos := int8(0); pos < 16; pos++ {
		for d := int8(0); d < 4; d++ {
			want := int8(-1)
			if canMove(pos, d) {
				want = pos + moveDelta[d]
			}
			if moveTab[pos][d] != want {
				t.Errorf("moveTab[%d][%d] = %d, want %d", pos, d, moveTab[pos][d], want)
			}
		}
	}
}

// TestSequentialGolden pins what the search counts on the default instance:
// a cheaper step must expand the same nodes in the same iterations.
func TestSequentialGolden(t *testing.T) {
	want := Result{Optimal: 42, Solutions: 11, Expansions: 21273274}
	if got := sequential(Default()); got != want {
		t.Fatalf("sequential(Default()) = %+v, want %+v", got, want)
	}
}

func TestScrambleSolvableWithinWalk(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{Walk: 14, Seed: seed, Jobs: 16, ExpandCost: time.Microsecond}
		res := Sequential(cfg)
		if res.Optimal < 0 {
			t.Fatalf("seed %d: no solution found", seed)
		}
		if res.Optimal > 14 {
			t.Fatalf("seed %d: optimal %d exceeds walk length", seed, res.Optimal)
		}
		if res.Optimal%2 != 14%2 && res.Optimal%2 != 0 {
			// Parity of solution length matches walk parity for the
			// 15-puzzle; just sanity-check it is consistent.
			t.Logf("seed %d: optimal %d (walk 14)", seed, res.Optimal)
		}
	}
}

func TestFrontierDeterministicAndSized(t *testing.T) {
	cfg := testCfg()
	a, b := expandFrontier(cfg), expandFrontier(cfg)
	if len(a) != len(b) || len(a) < cfg.Jobs {
		t.Fatalf("frontier sizes %d vs %d (want >= %d)", len(a), len(b), cfg.Jobs)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("frontier not deterministic")
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

func TestOptimizedReducesInterclusterSteals(t *testing.T) {
	cfg := Config{Walk: 26, Seed: 4, Jobs: 64, ExpandCost: time.Microsecond}
	orig := run(t, 4, 3, false, cfg)
	opt := run(t, 4, 3, true, cfg)
	if opt.Net.InterRPC().Msgs >= orig.Net.InterRPC().Msgs {
		t.Fatalf("intercluster RPCs: opt %d vs orig %d, no reduction",
			opt.Net.InterRPC().Msgs, orig.Net.InterRPC().Msgs)
	}
}

func TestSpeedupSingleCluster(t *testing.T) {
	// Walk-50/seed-2 is a 1.5M-expansion instance with well-spread jobs.
	cfg := Config{Walk: 50, Seed: 2, Jobs: 2048, ExpandCost: 2 * time.Microsecond}
	t1 := run(t, 1, 1, false, cfg).Elapsed
	t8 := run(t, 1, 8, false, cfg).Elapsed
	if sp := float64(t1) / float64(t8); sp < 5 {
		t.Fatalf("8-proc speedup %.2f too low", sp)
	}
}

func TestPolicyMatrixAllCorrect(t *testing.T) {
	cfg := testCfg()
	for _, pol := range []Policy{
		{}, {LocalFirst: true}, {RememberIdle: true}, {LocalFirst: true, RememberIdle: true},
	} {
		sys := core.NewSystem(core.Config{
			Topology: cluster.DAS(2, 3),
			Params:   cluster.DASParams(),
		})
		verify := BuildPolicy(sys, cfg, pol)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%+v: %v", pol, err)
		}
		if err := verify(); err != nil {
			t.Fatalf("%+v: %v", pol, err)
		}
	}
}

func TestIrregularClusters(t *testing.T) {
	cfg := testCfg()
	sys := core.NewSystem(core.Config{
		Topology: cluster.Irregular(3, 2, 4),
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

// TestSearchTableMatchesLoop: the unmemoized table fill, on one core and on
// four, equals each row's jobs searched in a plain loop under the threshold
// the previous row's minimum gives, and its rows add up to the sequential
// reference: every expansion, and the solutions in the last row.
func TestSearchTableMatchesLoop(t *testing.T) {
	cfg := Config{Walk: 26, Seed: 4, Jobs: 64, ExpandCost: time.Microsecond}
	jobs, want := frontier(cfg), Sequential(cfg)
	root := Scramble(cfg.Walk, cfg.Seed)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rows := searches(cfg)
		runtime.GOMAXPROCS(prev)
		threshold := manhattan(&root)
		var exp, sols int64
		for k, row := range rows {
			next := infThreshold
			sols = 0
			for i, j := range jobs {
				res := j.search(threshold)
				if row[i] != res {
					t.Fatalf("GOMAXPROCS %d: row %d job %d = %+v, the loop %+v", procs, k, i, row[i], res)
				}
				exp, sols, next = exp+res.expansions, sols+res.solutions, min(next, res.next)
			}
			threshold = next
		}
		if exp != want.Expansions || sols != want.Solutions {
			t.Errorf("GOMAXPROCS %d: %d rows hold %d expansions and %d solutions, want %d and %d",
				procs, len(rows), exp, sols, want.Expansions, want.Solutions)
		}
	}
}
