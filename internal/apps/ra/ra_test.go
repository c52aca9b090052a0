package ra

import (
	"errors"
	"strings"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/faults"
	"albatross/internal/sim"
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

// TestStarvedWorkerIsADeadlock: on a lossy WAN without the reliability layer
// some update never arrives and its receiver can never finish. A parked worker
// leaves the event heap to drain, so the run ends in a deadlock report naming
// the starved workers — where the polling loop ticked on for as long as the
// caller's deadline allowed, or forever.
func TestStarvedWorkerIsADeadlock(t *testing.T) {
	sys := core.NewSystem(core.Config{Topology: cluster.DAS(4, 2), Params: cluster.DASParams()})
	inj, err := faults.NewInjector(faults.Plan{Seed: 1, Default: faults.PairProbs{Drop: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Net.SetFaultPolicy(inj)
	sys.Engine.SetDeadline(30 * time.Second) // a polling worker would run into it
	Build(sys, testCfg(), false)
	_, err = sys.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want a *sim.DeadlockError", err)
	}
	if dl.Time > time.Second || dl.Dispatched > 100_000 {
		t.Errorf("deadlock reported at %v after %d events: the starved workers kept the run alive", dl.Time, dl.Dispatched)
	}
	for _, p := range dl.Parked {
		if !strings.HasPrefix(p, "ra-") || !strings.HasSuffix(p, " on mailbox data") {
			t.Errorf("parked %q, want only RA workers on their data mailbox", p)
		}
	}
	if inj.Counters().Drops == 0 {
		t.Error("the injector dropped nothing: the test starves nobody")
	}
	t.Logf("%v", err)
}

// TestEventBudget pins what one RA run costs the engine: events dispatched,
// how many of them the workers themselves scheduled as Sleep and Compute, and
// how many times the engine switched into a worker. The counts repeat
// exactly; the budgets leave 5-10% headroom for changes to the runtime below
// and still catch each of the worker's five rules coming undone (orig/opt): a
// Compute per update costs 16.4k/16.0k computes and 33k events, a settling
// Compute before every receive 10.7k/9.9k computes, an idle stretch as a
// tick's Sleep, a parked wait and an alignment Sleep 3,378/2,946 sleeps and
// 26.0k/25.5k events, a settle with nothing to flush paid as a Compute before
// the poll 7,801/6,956 computes, and a send after a resumed Compute instead of
// a chained one 9,299 orig resumes (opt's sends on this two-node-per-cluster
// shape nearly all go through the combiner, which keeps Compute).
func TestEventBudget(t *testing.T) {
	for _, tc := range []struct {
		opt                                 bool
		dispatched, sleep, compute, resumes uint64
	}{
		{opt: false, dispatched: 25_500, sleep: 460, compute: 7_500, resumes: 5_800}, // measured 23,934 / 422 / 6,938 / 5,440
		{opt: true, dispatched: 25_000, sleep: 245, compute: 6_850, resumes: 8_700},  // measured 23,476 / 225 / 6,323 / 8,242
	} {
		sys := core.NewSystem(core.Config{Topology: cluster.DAS(4, 2), Params: cluster.DASParams()})
		verify := Build(sys, testCfg(), tc.opt)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("opt=%v: %v", tc.opt, err)
		}
		if err := verify(); err != nil {
			t.Fatalf("opt=%v: %v", tc.opt, err)
		}
		d, c, res := sys.Engine.Dispatched(), sys.Engine.Census(), sys.Engine.Resumes()
		t.Logf("opt=%v: %d events dispatched, %d resumes, census %+v", tc.opt, d, res, c)
		if d > tc.dispatched || c.Sleep > tc.sleep || c.Compute > tc.compute || res > tc.resumes {
			t.Errorf("opt=%v: %d events, %d sleeps, %d computes, %d resumes; budgets %d, %d, %d, %d",
				tc.opt, d, c.Sleep, c.Compute, res, tc.dispatched, tc.sleep, tc.compute, tc.resumes)
		}
	}
}
