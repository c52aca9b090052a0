package acp

import (
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/rng"
)

func testCfg() Config {
	return Config{Vars: 60, Domain: 12, Degree: 6, Tightness: 65, Seed: 13,
		CheckCost: 50 * time.Nanosecond}
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

func TestSequentialIsFixpoint(t *testing.T) {
	cfg := testCfg()
	pr := NewProblem(cfg)
	dom := Sequential(cfg)
	pruned := 0
	for v := 0; v < cfg.Vars; v++ {
		if dom[v] != fullMask(cfg.Domain) {
			pruned++
		}
		for k, u := range pr.neighbors[v] {
			nv, _ := pr.revise(v, k, dom[v], dom[u])
			if nv != dom[v] {
				t.Fatalf("not a fixpoint: revise(%d,%d) still prunes", v, u)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no domain pruned at all; instance trivial, tighten the constraints")
	}
}

func TestAllowedSymmetric(t *testing.T) {
	pr := NewProblem(testCfg())
	for i := 0; i < 10; i++ {
		for j := 11; j < 20; j++ {
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					if pr.allowed(i, j, a, b) != pr.allowed(j, i, b, a) {
						t.Fatalf("asymmetric constraint (%d,%d,%d,%d)", i, j, a, b)
					}
				}
			}
		}
	}
}

func TestCorrectAcrossShapes(t *testing.T) {
	cfg := testCfg()
	for _, sh := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {2, 3}, {4, 2}} {
		for _, opt := range []bool{false, true} {
			run(t, sh[0], sh[1], opt, cfg)
		}
	}
}

func TestAsyncDoesNotBlockSenders(t *testing.T) {
	cfg := testCfg()
	orig := run(t, 4, 3, false, cfg)
	opt := run(t, 4, 3, true, cfg)
	if opt.Elapsed >= orig.Elapsed {
		t.Fatalf("async broadcasts (%v) not faster than ordered (%v)", opt.Elapsed, orig.Elapsed)
	}
}

func TestBroadcastHeavy(t *testing.T) {
	cfg := testCfg()
	m := run(t, 2, 2, false, cfg)
	if m.Ops.Bcasts == 0 {
		t.Fatal("no broadcasts; ACP should be broadcast-dominated")
	}
	if m.Ops.RPCs > m.Ops.Bcasts {
		t.Fatalf("RPC-dominated (%d RPCs vs %d bcasts)", m.Ops.RPCs, m.Ops.Bcasts)
	}
}

// reviseRef is revise as first written — scan du in ascending order, one
// allowed call per check, stop at the first support — kept as the oracle for
// both the mask and the check count (the virtual time a run charges).
func reviseRef(pr *Problem, v, u int, dv, du uint32) (uint32, int) {
	checks := 0
	out := dv
	for a := 0; a < pr.cfg.Domain; a++ {
		if dv&(1<<a) == 0 {
			continue
		}
		supported := false
		for b := 0; b < pr.cfg.Domain; b++ {
			if du&(1<<b) == 0 {
				continue
			}
			checks++
			if pr.allowed(v, u, a, b) {
				supported = true
				break
			}
		}
		if !supported {
			out &^= 1 << a
		}
	}
	return out, checks
}

func TestReviseMatchesReference(t *testing.T) {
	wide := testCfg()
	wide.Domain = 32
	for _, cfg := range []Config{testCfg(), wide} {
		pr := NewProblem(cfg)
		r := rng.New(5)
		full := fullMask(cfg.Domain)
		for v, nb := range pr.neighbors {
			for k, u := range nb {
				for trial := 0; trial < 40; trial++ {
					dv, du := uint32(r.Uint64())&full, uint32(r.Uint64())&full
					switch trial {
					case 0:
						dv, du = full, full
					case 1:
						du = 0
					case 2:
						du &= uint32(r.Uint64()) & uint32(r.Uint64()) // sparse: unsupported values
					}
					wantMask, wantChecks := reviseRef(pr, v, int(u), dv, du)
					mask, checks := pr.revise(v, k, dv, du)
					if mask != wantMask || checks != wantChecks {
						t.Fatalf("domain %d: revise(%d, %d→%d, %#x, %#x) = (%#x, %d checks), want (%#x, %d)",
							cfg.Domain, v, k, u, dv, du, mask, checks, wantMask, wantChecks)
					}
				}
			}
		}
	}
}

func TestWideDomainPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "acp: domain must fit a 32-bit mask" {
			t.Fatalf("panic %v", r)
		}
	}()
	cfg := testCfg()
	cfg.Domain = 33
	NewProblem(cfg)
}

// BenchmarkRevise is the app-kernel rung for ACP: one variable of the
// default instance revised against all its neighbours, every domain full
// (the first sweep of a run, where the scan is longest).
func BenchmarkRevise(b *testing.B) {
	cfg := Default()
	pr := problemFor(cfg)
	full := fullMask(cfg.Domain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % cfg.Vars
		nv := full
		for k := range pr.neighbors[v] {
			nv, reviseSink = pr.revise(v, k, nv, full)
		}
	}
}

var reviseSink int
