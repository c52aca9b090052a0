package ra

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

func testCfg() Config {
	return Config{N: 4000, Succ: 3, Span: 200, TermPct: 5, Seed: 21,
		ApplyCost: time.Microsecond, SendCost: 10 * time.Microsecond,
		NodeBatch: 8, FlushEach: 300 * time.Microsecond}
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

func TestGameIsDAG(t *testing.T) {
	g := NewGame(testCfg())
	for v := 0; v < testCfg().N; v++ {
		for _, s := range g.AppendSuccessors(nil, v) {
			if int(s) <= v || int(s) >= testCfg().N {
				t.Fatalf("successor %d of %d out of range", s, v)
			}
		}
	}
}

func TestSequentialValuesConsistent(t *testing.T) {
	cfg := testCfg()
	g := NewGame(cfg)
	vals := Sequential(cfg)
	wins, losses := 0, 0
	for v := 0; v < cfg.N; v++ {
		succ := g.AppendSuccessors(nil, v)
		switch vals[v] {
		case Loss:
			losses++
			for _, s := range succ {
				if vals[s] != Win {
					t.Fatalf("loss position %d has non-win successor %d", v, s)
				}
			}
		case Win:
			wins++
			found := false
			for _, s := range succ {
				if vals[s] == Loss {
					found = true
				}
			}
			if !found {
				t.Fatalf("win position %d has no loss successor", v)
			}
		default:
			t.Fatalf("position %d undetermined", v)
		}
	}
	if wins == 0 || losses == 0 {
		t.Fatalf("degenerate game: %d wins, %d losses", wins, losses)
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

func TestCombiningReducesInterclusterMessages(t *testing.T) {
	cfg := testCfg()
	orig := run(t, 4, 3, false, cfg)
	opt := run(t, 4, 3, true, cfg)
	if float64(opt.Net.TotalInter().Msgs) > 0.6*float64(orig.Net.TotalInter().Msgs) {
		t.Fatalf("intercluster msgs: opt %d vs orig %d", opt.Net.TotalInter().Msgs, orig.Net.TotalInter().Msgs)
	}
}

func TestMultiClusterMuchSlowerThanSingle(t *testing.T) {
	// The paper's headline RA result: heavy irregular traffic makes the
	// wide-area runs slower than a single cluster of the same size.
	cfg := testCfg()
	single := run(t, 1, 8, false, cfg)
	multi := run(t, 4, 2, false, cfg)
	if multi.Elapsed <= single.Elapsed {
		t.Fatalf("4x2 (%v) not slower than 1x8 (%v)", multi.Elapsed, single.Elapsed)
	}
}
