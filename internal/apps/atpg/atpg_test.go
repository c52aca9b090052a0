package atpg

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/rng"
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

// eval is the scalar oracle for the word kernel: it simulates the circuit on
// one input pattern, a byte per signal in vals, with gate faultGate's output
// (if >= 0) stuck at stuckAt, and hashes the primary outputs.
func (c *Circuit) eval(vals []byte, pattern uint64, faultGate int, stuckAt byte) uint64 {
	n := c.cfg.Inputs + len(c.gates)
	for i := 0; i < c.cfg.Inputs; i++ {
		vals[i] = byte((pattern >> i) & 1)
	}
	for i, g := range c.gates {
		a, b := vals[g.a], vals[g.b]
		var v byte
		switch g.kind {
		case gAnd:
			v = a & b
		case gOr:
			v = a | b
		case gNand:
			v = 1 - a&b
		case gNor:
			v = 1 - a | b // (1-a) | b: the model's quirk, see the gate kinds
		case gXor:
			v = a ^ b
		case gNot:
			v = 1 - a
		}
		if i == faultGate {
			v = stuckAt
		}
		vals[c.cfg.Inputs+i] = v
	}
	var sig uint64
	for i := n - c.Outputs(); i < n; i++ {
		sig = sig<<1 | uint64(vals[i])
		if i%53 == 0 {
			sig *= 0x9e3779b97f4a7c15 // fold long output vectors
		}
	}
	return sig
}

// scalarStats counts what the scalar oracle met on a circuit's faults.
type scalarStats struct {
	late      int // faults detected past the first 64-try chunk
	collision int // tries whose outputs differ under equal signatures
}

// testFaultScalar is the oracle for TestFault: one try at a time, the good
// and the faulty circuit simulated in full per try.
func (c *Circuit) testFaultScalar(f Fault, st *scalarStats) (pattern uint64, found bool, evals int64) {
	n := c.cfg.Inputs + len(c.gates)
	gv, bv := make([]byte, n), make([]byte, n)
	r := rng.New(c.cfg.Seed ^ rng.Hash64(uint64(f.Gate)*2+uint64(f.StuckAt)))
	for t := 0; t < c.cfg.Tries; t++ {
		pat := r.Uint64()
		good := c.eval(gv, pat, -1, 0)
		bad := c.eval(bv, pat, f.Gate, f.StuckAt)
		evals += int64(2 * len(c.gates))
		if good != bad {
			if t >= 64 {
				st.late++
			}
			return pat, true, evals
		}
		if !bytes.Equal(gv[n-c.Outputs():], bv[n-c.Outputs():]) {
			st.collision++
		}
	}
	return 0, false, evals
}

// faultWordsMatchScalar reports the first fault of cfg's circuit on which
// TestFault and the scalar oracle disagree, and what the oracle met.
func faultWordsMatchScalar(cfg Config) (mismatch string, st scalarStats) {
	c := NewCircuit(cfg)
	s := c.NewScratch()
	for _, f := range c.Faults() {
		pw, fw, ew := c.TestFault(s, f)
		ps, fs, es := c.testFaultScalar(f, &st)
		if pw != ps || fw != fs || ew != es {
			return fmt.Sprintf("%+v fault %+v: words (%x, %v, %d), scalar (%x, %v, %d)",
				cfg, f, pw, fw, ew, ps, fs, es), st
		}
	}
	return "", st
}

func TestCircuitDeterministic(t *testing.T) {
	cfg := testCfg()
	a, b := NewCircuit(cfg), NewCircuit(cfg)
	va, vb := make([]byte, cfg.Inputs+cfg.Gates), make([]byte, cfg.Inputs+cfg.Gates)
	for pat := uint64(0); pat < 64; pat += 7 {
		if a.eval(va, pat, -1, 0) != b.eval(vb, pat, -1, 0) {
			t.Fatal("circuit generation not deterministic")
		}
	}
}

func TestFaultDetectionMeansOutputsDiffer(t *testing.T) {
	cfg := testCfg()
	c := NewCircuit(cfg)
	s := c.NewScratch()
	vals := make([]byte, cfg.Inputs+cfg.Gates)
	found := 0
	for _, f := range c.Faults() {
		pat, ok, _ := c.TestFault(s, f)
		if !ok {
			continue
		}
		found++
		if c.eval(vals, pat, -1, 0) == c.eval(vals, pat, f.Gate, f.StuckAt) {
			t.Fatalf("pattern %x does not actually detect fault %+v", pat, f)
		}
	}
	if found == 0 {
		t.Fatal("no fault detected at all; circuit degenerate")
	}
}

// TestFaultWordsMatchScalar: for every fault of the benchmark circuit, the
// test circuit, a 100-try circuit (some faults detected in the second 64-try
// chunk) and an 800-gate one (80 outputs, so a difference confined to the
// first 16 is shifted out of the signature), the word kernel returns the
// scalar oracle's pattern, found flag and evaluation count.
func TestFaultWordsMatchScalar(t *testing.T) {
	late := Config{Inputs: 16, Gates: 200, Tries: 100, Seed: 7}
	wide := Config{Inputs: 16, Gates: 800, Tries: 8, Seed: 7}
	for _, cfg := range []Config{Default(), testCfg(), late, wide} {
		bad, st := faultWordsMatchScalar(cfg)
		if bad != "" {
			t.Fatal(bad)
		}
		if cfg == late && st.late == 0 {
			t.Errorf("%+v: no fault is detected past the first chunk", cfg)
		}
		if cfg == wide && st.collision == 0 {
			t.Errorf("%+v: no try's outputs differ under equal signatures", cfg)
		}
	}
}

// randomWordsConfig decodes a small circuit: 1-70 inputs (past one word's
// width), 1-150 gates and 0-200 tries (up to four chunks).
func randomWordsConfig(inputs, gates, tries uint8, seed uint64) Config {
	return Config{Inputs: 1 + int(inputs)%70, Gates: 1 + int(gates)%150, Tries: int(tries) % 201, Seed: seed}
}

// FuzzFaultWords: on a random small circuit the word kernel equals the
// scalar oracle on every fault. TestFaultWordsRandomCircuits is its twin.
func FuzzFaultWords(f *testing.F) {
	f.Add(uint8(11), uint8(79), uint8(100), uint64(7))
	f.Add(uint8(69), uint8(3), uint8(64), uint64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, inputs, gates, tries uint8, seed uint64) {
		if bad, _ := faultWordsMatchScalar(randomWordsConfig(inputs, gates, tries, seed)); bad != "" {
			t.Fatal(bad)
		}
	})
}

// TestFaultWordsRandomCircuits runs FuzzFaultWords's property on 100
// generated circuits.
func TestFaultWordsRandomCircuits(t *testing.T) {
	r := rng.New(41)
	for i := 0; i < 100; i++ {
		cfg := randomWordsConfig(uint8(r.Uint64()), uint8(r.Uint64()), uint8(r.Uint64()), r.Uint64())
		if bad, _ := faultWordsMatchScalar(cfg); bad != "" {
			t.Fatal(bad)
		}
	}
}

// faultLoop is the oracle for Sequential: every fault's pattern search in a
// plain loop with one scratch.
func faultLoop(cfg Config) Result {
	c := NewCircuit(cfg)
	s := c.NewScratch()
	var res Result
	for _, f := range c.Faults() {
		if _, ok, _ := c.TestFault(s, f); ok {
			res.Patterns++
			res.Covered++
		}
	}
	return res
}

// TestSearchTableMatchesOracle: the fault loop finds 556 patterns covering
// 556 faults on the default circuit, and equals the fold of the search table
// on it and on the circuits TestFaultWordsMatchScalar checks.
func TestSearchTableMatchesOracle(t *testing.T) {
	golden := Result{Patterns: 556, Covered: 556}
	if got := faultLoop(Default()); got != golden {
		t.Fatalf("faultLoop(Default()) = %+v, want %+v", got, golden)
	}
	late := Config{Inputs: 16, Gates: 200, Tries: 100, Seed: 7}
	wide := Config{Inputs: 16, Gates: 800, Tries: 8, Seed: 7}
	for _, cfg := range []Config{Default(), testCfg(), late, wide} {
		if fold, want := Sequential(cfg), faultLoop(cfg); fold != want {
			t.Errorf("%+v: the fold %+v, the fault loop %+v", cfg, fold, want)
		}
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
