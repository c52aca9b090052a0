package coll

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
)

func sumCombine(acc, v any) any {
	if acc == nil {
		return v
	}
	return acc.(int) + v.(int)
}

func shapes() []cluster.Topology {
	return []cluster.Topology{
		cluster.DAS(1, 1),
		cluster.DAS(1, 7),
		cluster.DAS(2, 4),
		cluster.DAS(4, 3),
		cluster.Irregular(5, 2, 3),
	}
}

// TestBcastCorrectAllShapesStrategiesRoots: every rank returns the root's
// value, a nil one included, never the data argument it passed itself.
func TestBcastCorrectAllShapesStrategiesRoots(t *testing.T) {
	for _, topo := range shapes() {
		for _, strat := range []Strategy{Flat, WideArea} {
			p := topo.Compute()
			for _, root := range []int{0, p / 2, p - 1} {
				for _, want := range []any{"payload", nil} {
					var comm *Comm
					got := make([]any, p)
					sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
					comm = New(sys, "c", strat)
					sys.SpawnWorkers("w", func(w *core.Worker) {
						var data any = w.Rank()
						if w.Rank() == root {
							data = want
						}
						got[w.Rank()] = comm.Bcast(w, root, 64, data)
					})
					if _, err := sys.Run(); err != nil {
						t.Fatalf("%v %v root=%d: %v", topo, strat, root, err)
					}
					for r, v := range got {
						if v != want {
							t.Fatalf("%v %v root=%d: rank %d got %v, want %v", topo, strat, root, r, v, want)
						}
					}
				}
			}
		}
	}
}

func TestReduceCorrect(t *testing.T) {
	for _, topo := range shapes() {
		for _, strat := range []Strategy{Flat, WideArea} {
			p := topo.Compute()
			root := p - 1
			var result any
			sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
			comm := New(sys, "c", strat)
			sys.SpawnWorkers("w", func(w *core.Worker) {
				v := comm.Reduce(w, root, 8, w.Rank()+1, sumCombine)
				if w.Rank() == root {
					result = v
				} else if v != nil {
					t.Errorf("non-root got %v", v)
				}
			})
			if _, err := sys.Run(); err != nil {
				t.Fatalf("%v %v: %v", topo, strat, err)
			}
			want := p * (p + 1) / 2
			if result != want {
				t.Fatalf("%v %v: sum %v, want %d", topo, strat, result, want)
			}
		}
	}
}

func TestAllReduceAndBarrier(t *testing.T) {
	topo := cluster.DAS(3, 3)
	for _, strat := range []Strategy{Flat, WideArea} {
		p := topo.Compute()
		got := make([]any, p)
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
		comm := New(sys, "c", strat)
		after := make([]time.Duration, p)
		sys.SpawnWorkers("w", func(w *core.Worker) {
			w.Compute(time.Duration(w.Rank()) * time.Millisecond)
			got[w.Rank()] = comm.AllReduce(w, 8, 1, sumCombine)
			comm.Barrier(w)
			after[w.Rank()] = w.P.Now()
		})
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		for r, v := range got {
			if v != p {
				t.Fatalf("%v: rank %d allreduce %v, want %d", strat, r, v, p)
			}
		}
	}
}

func TestGatherAndAllGather(t *testing.T) {
	topo := cluster.DAS(2, 3)
	for _, strat := range []Strategy{Flat, WideArea} {
		p := topo.Compute()
		var rootView []any
		views := make([][]any, p)
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
		comm := New(sys, "c", strat)
		sys.SpawnWorkers("w", func(w *core.Worker) {
			g := comm.Gather(w, 2, 16, 100+w.Rank())
			if w.Rank() == 2 {
				rootView = g
			}
			views[w.Rank()] = comm.AllGather(w, 16, 200+w.Rank())
		})
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			if rootView[r] != 100+r {
				t.Fatalf("%v: gather[%d] = %v", strat, r, rootView[r])
			}
			for q := 0; q < p; q++ {
				if views[r][q] != 200+q {
					t.Fatalf("%v: allgather at %d, slot %d = %v", strat, r, q, views[r][q])
				}
			}
		}
	}
}

// TestWideAreaUsesOneWANMessagePerCluster is the structural guarantee the
// strategy exists for.
func TestWideAreaUsesOneWANMessagePerCluster(t *testing.T) {
	// Cluster size 6 is deliberately not a power of two: a rank-space
	// binomial tree then crosses cluster boundaries all over the place.
	topo := cluster.DAS(4, 6)
	countInter := func(strat Strategy, op func(c *Comm, w *core.Worker)) int64 {
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
		comm := New(sys, "c", strat)
		sys.SpawnWorkers("w", func(w *core.Worker) { op(comm, w) })
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.Net.TotalInter().Msgs
	}
	bcast := func(c *Comm, w *core.Worker) { c.Bcast(w, 0, 1024, "x") }
	reduce := func(c *Comm, w *core.Worker) { c.Reduce(w, 0, 8, 1, sumCombine) }
	if got := countInter(WideArea, bcast); got != 3 {
		t.Fatalf("wide-area bcast used %d WAN messages, want 3", got)
	}
	if got := countInter(WideArea, reduce); got != 3 {
		t.Fatalf("wide-area reduce used %d WAN messages, want 3", got)
	}
	if flat := countInter(Flat, bcast); flat <= 3 {
		t.Fatalf("flat bcast used only %d WAN messages; topology-oblivious tree should cross more", flat)
	}
}

func TestWideAreaFasterThanFlat(t *testing.T) {
	topo := cluster.DAS(4, 6)
	elapsed := func(strat Strategy) time.Duration {
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
		comm := New(sys, "c", strat)
		sys.SpawnWorkers("w", func(w *core.Worker) {
			for i := 0; i < 10; i++ {
				comm.Bcast(w, 0, 512, i)
				comm.Barrier(w)
			}
		})
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.Elapsed
	}
	flat := elapsed(Flat)
	wa := elapsed(WideArea)
	if float64(wa)*1.5 > float64(flat) {
		t.Fatalf("wide-area (%v) not clearly faster than flat (%v)", wa, flat)
	}
}

// TestCollectiveSequencesProperty: random sequences of collectives stay
// correct (matching is purely by per-worker call order).
func TestCollectiveSequencesProperty(t *testing.T) {
	prop := func(seedOps []uint8) bool {
		if len(seedOps) > 12 {
			seedOps = seedOps[:12]
		}
		topo := cluster.DAS(2, 3)
		p := topo.Compute()
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
		comm := New(sys, "c", WideArea)
		okAll := true
		sys.SpawnWorkers("w", func(w *core.Worker) {
			for i, op := range seedOps {
				switch op % 3 {
				case 0:
					if comm.Bcast(w, int(op)%p, 32, i) != i {
						okAll = false
					}
				case 1:
					v := comm.AllReduce(w, 8, 1, sumCombine)
					if v != p {
						okAll = false
					}
				case 2:
					comm.Barrier(w)
				}
			}
		})
		if _, err := sys.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterCorrect(t *testing.T) {
	for _, topo := range shapes() {
		for _, strat := range []Strategy{Flat, WideArea} {
			p := topo.Compute()
			for _, root := range []int{0, p - 1} {
				values := make([]any, p)
				for r := 0; r < p; r++ {
					values[r] = 1000 + r
				}
				got := make([]any, p)
				sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
				comm := New(sys, "c", strat)
				sys.SpawnWorkers("w", func(w *core.Worker) {
					in := values
					if w.Rank() != root {
						in = nil // only the root's values matter
					}
					got[w.Rank()] = comm.Scatter(w, root, 16, in)
				})
				if _, err := sys.Run(); err != nil {
					t.Fatalf("%v %v root=%d: %v", topo, strat, root, err)
				}
				for r := 0; r < p; r++ {
					if got[r] != 1000+r {
						t.Fatalf("%v %v root=%d: rank %d got %v", topo, strat, root, r, got[r])
					}
				}
			}
		}
	}
}

func TestAllToAllCorrect(t *testing.T) {
	for _, topo := range shapes() {
		for _, strat := range []Strategy{Flat, WideArea} {
			p := topo.Compute()
			got := make([][]any, p)
			sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
			comm := New(sys, "c", strat)
			sys.SpawnWorkers("w", func(w *core.Worker) {
				values := make([]any, p)
				for q := 0; q < p; q++ {
					values[q] = w.Rank()*1000 + q // value sender r sends to q
				}
				got[w.Rank()] = comm.AllToAll(w, 8, values)
			})
			if _, err := sys.Run(); err != nil {
				t.Fatalf("%v %v: %v", topo, strat, err)
			}
			for r := 0; r < p; r++ {
				for s := 0; s < p; s++ {
					if got[r][s] != s*1000+r {
						t.Fatalf("%v %v: rank %d slot %d = %v, want %d", topo, strat, r, s, got[r][s], s*1000+r)
					}
				}
			}
		}
	}
}

func TestAllToAllWANBundles(t *testing.T) {
	// Wide-area AllToAll exchanges exactly one bundle per ordered cluster
	// pair: C*(C-1) WAN messages, whatever the per-cluster membership.
	topo := cluster.DAS(4, 6)
	p := topo.Compute()
	sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams()})
	comm := New(sys, "c", WideArea)
	sys.SpawnWorkers("w", func(w *core.Worker) {
		values := make([]any, p)
		for q := range values {
			values[q] = q
		}
		comm.AllToAll(w, 8, values)
	})
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Net.TotalInter().Msgs; got != 12 {
		t.Fatalf("wide-area alltoall used %d WAN messages, want 12", got)
	}
}

// TestShardedMatchesSequential runs the collectives outside the root-0 tree
// set (all-gather, a non-zero-root scatter, all-to-all) on the sequential
// engine and on four LPs. Every tag is interned at New, so the LPs only read
// the tag tables (go test -race checks that), and both engines must agree on
// every result and on the elapsed time.
func TestShardedMatchesSequential(t *testing.T) {
	topo := cluster.DAS(4, 3)
	p := topo.Compute()
	run := func(strat Strategy, shards int) ([][]any, time.Duration) {
		got := make([][]any, p)
		sys := core.NewSystem(core.Config{Topology: topo, Params: cluster.DASParams(), Shards: shards})
		comm := New(sys, "c", strat)
		sys.SpawnWorkers("w", func(w *core.Worker) {
			values := make([]any, p)
			for q := range values {
				values[q] = w.Rank()*1000 + q
			}
			out := comm.AllGather(w, 16, w.Rank())
			out = append(out, comm.Scatter(w, 5, 16, values))
			got[w.Rank()] = append(out, comm.AllToAll(w, 8, values)...)
		})
		m, err := sys.Run()
		if err != nil {
			t.Fatalf("%v shards=%d: %v", strat, shards, err)
		}
		return got, m.Elapsed
	}
	for _, strat := range []Strategy{Flat, WideArea} {
		seq, seqT := run(strat, 0)
		shd, shdT := run(strat, 4)
		if !reflect.DeepEqual(seq, shd) {
			t.Fatalf("%v: sharded results differ from sequential", strat)
		}
		if seqT != shdT {
			t.Fatalf("%v: elapsed %v sequential, %v sharded", strat, seqT, shdT)
		}
		if want := 5*1000 + 7; seq[7][p] != want {
			t.Fatalf("%v: rank 7 scattered %v, want %d", strat, seq[7][p], want)
		}
	}
}

// TestTreeRejectsForeignRanks: a broadcast tree over a rank group that lacks
// the calling rank or the root is a bug in the collective that built it.
func TestTreeRejectsForeignRanks(t *testing.T) {
	sys := core.NewDAS(1, 2)
	comm := New(sys, "c", Flat)
	var got []any
	sys.SpawnWorkers("w", func(w *core.Worker) {
		if w.Rank() != 0 {
			return
		}
		for _, tc := range []struct {
			root  int
			group []int
		}{{1, []int{1}}, {5, []int{0, 1}}} {
			func() {
				defer func() { got = append(got, recover()) }()
				comm.bcastTree(w, tc.root, 8, nil, tc.group, phB)
			}()
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []any{"coll: rank 0 not in group", "coll: root 5 not in group"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("panics %v, want %v", got, want)
	}
}
