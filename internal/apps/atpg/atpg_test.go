package atpg

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

func testCfg() Config {
	return Config{Inputs: 12, Gates: 80, Tries: 10, Seed: 7, GateCost: 100 * time.Nanosecond}
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

func TestCircuitDeterministic(t *testing.T) {
	cfg := testCfg()
	a, b := NewCircuit(cfg), NewCircuit(cfg)
	sa, sb := a.NewScratch(), b.NewScratch()
	for pat := uint64(0); pat < 64; pat += 7 {
		if a.eval(sa, pat, -1, 0) != b.eval(sb, pat, -1, 0) {
			t.Fatal("circuit generation not deterministic")
		}
	}
}

func TestFaultDetectionMeansOutputsDiffer(t *testing.T) {
	cfg := testCfg()
	c := NewCircuit(cfg)
	s := c.NewScratch()
	found := 0
	for _, f := range c.Faults() {
		pat, ok, _ := c.TestFault(s, f)
		if !ok {
			continue
		}
		found++
		if c.eval(s, pat, -1, 0) == c.eval(s, pat, f.Gate, f.StuckAt) {
			t.Fatalf("pattern %x does not actually detect fault %+v", pat, f)
		}
	}
	if found == 0 {
		t.Fatal("no fault detected at all; circuit degenerate")
	}
}

func TestSequentialCoversSomeNotAll(t *testing.T) {
	res := Sequential(testCfg())
	total := 2 * testCfg().Gates
	if res.Covered == 0 || res.Covered >= total {
		t.Fatalf("coverage %d of %d implausible", res.Covered, total)
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

func TestOptimizedOneRPCPerCluster(t *testing.T) {
	cfg := testCfg()
	opt := run(t, 4, 3, true, cfg)
	// Intercluster RPCs: the three non-owner clusters ship one total each.
	if got := opt.Net.InterRPC().Msgs; got != 3 {
		t.Fatalf("intercluster RPCs %d, want 3 (one per remote cluster)", got)
	}
	orig := run(t, 4, 3, false, cfg)
	if orig.Net.InterRPC().Msgs <= 3 {
		t.Fatalf("original made only %d intercluster RPCs; test circuit too small", orig.Net.InterRPC().Msgs)
	}
}

func TestHighEfficiencyEvenUnoptimized(t *testing.T) {
	// The paper: ATPG barely degrades on multiple clusters at DAS speeds.
	cfg := Config{Inputs: 16, Gates: 200, Tries: 16, Seed: 7, GateCost: 800 * time.Nanosecond}
	t1 := run(t, 1, 1, false, cfg).Elapsed
	t4x2 := run(t, 4, 2, false, cfg).Elapsed
	eff := float64(t1) / float64(t4x2) / 8
	if eff < 0.5 {
		t.Fatalf("4x2 efficiency %.2f too low for a barely-communicating program", eff)
	}
}

// TestSearchTableMatchesLoop: the unmemoized table fill, on one core and on
// four, equals each fault's pattern search run in a plain loop.
func TestSearchTableMatchesLoop(t *testing.T) {
	cfg := testCfg()
	c := NewCircuit(cfg)
	s := c.NewScratch()
	var want []faultTest
	for _, f := range c.Faults() {
		_, found, evals := c.TestFault(s, f)
		want = append(want, faultTest{found, evals})
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := tests(cfg)
		runtime.GOMAXPROCS(prev)
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: the table differs from the loop", procs)
		}
	}
}
