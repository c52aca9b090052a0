package core

import (
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/orca"
	"albatross/internal/rng"
	"albatross/internal/sim"
)

func TestSystemSmoke(t *testing.T) {
	sys := NewDAS(2, 4)
	ran := 0
	sys.SpawnWorkers("w", func(w *Worker) {
		w.Compute(time.Duration(w.Rank()+1) * time.Millisecond)
		ran++
	})
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ran != 8 {
		t.Fatalf("ran %d workers", ran)
	}
	if m.Elapsed != 8*time.Millisecond {
		t.Fatalf("elapsed %v", m.Elapsed)
	}
}

// fetchCounter builds a FetchFunc that counts how many fetches reach each
// source and charges a WAN-like RPC through a service at the source.
func fetchCounter(sys *System, fetches map[cluster.NodeID]int) FetchFunc {
	for i := 0; i < sys.Topo.Compute(); i++ {
		src := cluster.NodeID(i)
		mb := sys.RTS.RegisterService(src, "data")
		sys.spawnDaemon(src, "data-server", func(w *Worker) {
			for {
				req := orca.NextRequest(w.P, mb)
				fetches[src]++
				req.Reply(1024, "payload")
			}
		})
	}
	return func(p *sim.Proc, at, source cluster.NodeID, key any) (any, int) {
		v := sys.RTS.Call(p, at, source, "data", 16, key)
		return v, 1024
	}
}

func TestClusterCacheSingleWANFetch(t *testing.T) {
	sys := NewDAS(2, 4)
	fetches := make(map[cluster.NodeID]int)
	cc := NewClusterCache(sys, "t", fetchCounter(sys, fetches))
	// All 4 nodes of cluster 0 read the same key from node 4 (cluster 1).
	source := cluster.NodeID(4)
	got := 0
	sys.SpawnWorkers("w", func(w *Worker) {
		if w.Cluster() != 0 {
			return
		}
		v := cc.Get(w, source, "iter1")
		if v == "payload" {
			got++
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("only %d readers got data", got)
	}
	if fetches[source] != 1 {
		t.Fatalf("source fetched %d times, want 1 (cluster caching)", fetches[source])
	}
}

func TestClusterCacheDistinctKeysRefetch(t *testing.T) {
	sys := NewDAS(2, 2)
	fetches := make(map[cluster.NodeID]int)
	cc := NewClusterCache(sys, "t", fetchCounter(sys, fetches))
	source := cluster.NodeID(2)
	sys.SpawnAt(1, "reader", func(w *Worker) {
		cc.Get(w, source, "iter1")
		cc.Get(w, source, "iter1") // cached
		cc.Get(w, source, "iter2") // new key: refetch
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if fetches[source] != 2 {
		t.Fatalf("source fetched %d times, want 2", fetches[source])
	}
}

func TestClusterCacheSameClusterDirect(t *testing.T) {
	sys := NewDAS(2, 4)
	fetches := make(map[cluster.NodeID]int)
	cc := NewClusterCache(sys, "t", fetchCounter(sys, fetches))
	sys.SpawnAt(1, "reader", func(w *Worker) {
		cc.Get(w, 2, "k") // node 2 is in the same cluster: direct path
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if fetches[2] != 1 {
		t.Fatalf("fetches %v", fetches)
	}
	if sys.Net.Stats().TotalInter().Msgs != 0 {
		t.Fatal("same-cluster get crossed the WAN")
	}
}

func TestClusterReducerCombinesRemoteContributions(t *testing.T) {
	sys := NewDAS(2, 3)
	cr := NewClusterReducer(sys, "sum", func(acc, v any) any {
		if acc == nil {
			return v
		}
		return acc.(int) + v.(int)
	})
	tag := orca.Tag{Op: "forces", A: 7}
	target := cluster.NodeID(0)
	var sum int
	var nmsgs int
	// Contributors: nodes 1,2 (local to target) and 3,4,5 (remote cluster).
	contributors := []cluster.NodeID{1, 2, 3, 4, 5}
	expectMsgs := cr.ExpectedMessages(target, contributors)
	sys.SpawnWorkers("w", func(w *Worker) {
		switch {
		case w.Node == target:
			for i := 0; i < expectMsgs; i++ {
				sum += w.Recv(tag).(int)
				nmsgs++
			}
		default:
			cr.Put(w, target, tag, 64, 1<<w.Rank(), 3) // 3 remote contributors
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 2+4+8+16+32 {
		t.Fatalf("sum %d", sum)
	}
	if expectMsgs != 3 { // 2 local directs + 1 remote aggregate
		t.Fatalf("expected messages %d", expectMsgs)
	}
	// Exactly one aggregate crossed the WAN.
	if got := sys.Net.Stats().TotalInter().Msgs; got != 1 {
		t.Fatalf("intercluster messages %d, want 1", got)
	}
}

func TestCombinerDeliversAllOnce(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		sys := NewDAS(3, 3)
		cb := NewCombiner(sys, "t", 4096, 500*time.Microsecond)
		const nmsg = 40
		recvCount := make(map[int]int)
		total := 0
		sys.SpawnWorkers("w", func(w *Worker) {
			if w.Rank() == 0 {
				wr := r.Derive(99)
				for i := 0; i < nmsg; i++ {
					to := cluster.NodeID(1 + wr.Intn(8))
					cb.Send(w, to, orca.Tag{Op: "m", A: i}, 100, i)
					w.Compute(time.Duration(wr.Intn(200)) * time.Microsecond)
				}
			}
		})
		// Deliveries land in per-tag mailboxes; count after the run.
		if _, err := sys.Run(); err != nil {
			return false
		}
		for i := 0; i < nmsg; i++ {
			for n := 1; n < 9; n++ {
				if _, ok := sys.RTS.TryRecvData(cluster.NodeID(n), orca.Tag{Op: "m", A: i}); ok {
					recvCount[i]++
					total++
				}
			}
		}
		for i := 0; i < nmsg; i++ {
			if recvCount[i] != 1 {
				return false
			}
		}
		return total == nmsg
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCombinerReducesInterclusterMessages(t *testing.T) {
	run := func(useCombiner bool) int64 {
		sys := NewDAS(2, 3)
		cb := NewCombiner(sys, "t", 8192, time.Millisecond)
		sys.SpawnAt(0, "sender", func(w *Worker) {
			for i := 0; i < 50; i++ {
				if useCombiner {
					cb.Send(w, 4, orca.Tag{Op: "m", A: i}, 100, i)
				} else {
					w.Send(4, orca.Tag{Op: "m", A: i}, 100, i)
				}
			}
			w.Compute(2 * time.Millisecond) // let timers flush
		})
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Net.Stats().TotalInter().Msgs
	}
	direct := run(false)
	combined := run(true)
	if combined*5 > direct {
		t.Fatalf("combining sent %d intercluster messages vs %d direct", combined, direct)
	}
}

func TestCombinerFlushAfterTimerDrainsStragglers(t *testing.T) {
	sys := NewDAS(2, 2)
	cb := NewCombiner(sys, "t", 1<<20 /* never by size */, 300*time.Microsecond)
	sys.SpawnAt(0, "sender", func(w *Worker) {
		cb.Send(w, 2, orca.Tag{Op: "x"}, 10, "v")
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.RTS.TryRecvData(2, orca.Tag{Op: "x"}); !ok {
		t.Fatal("straggler message never flushed")
	}
}

func TestCentralQueueAllJobsOnce(t *testing.T) {
	sys := NewDAS(2, 2)
	q := NewCentralQueue(sys, 0)
	const jobs = 20
	got := make(map[int]int)
	done := 0
	sys.SpawnAt(0, "master", func(w *Worker) {
		for i := 0; i < jobs; i++ {
			q.Push(w, 32, i)
		}
		q.Close(w)
	})
	sys.SpawnWorkers("w", func(w *Worker) {
		for {
			job, ok, closed := q.Pop(w, 32)
			if ok {
				got[job.(int)]++
				w.Compute(100 * time.Microsecond)
				continue
			}
			if closed {
				done++
				return
			}
			w.P.Sleep(50 * time.Microsecond)
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("only %d workers terminated", done)
	}
	for i := 0; i < jobs; i++ {
		if got[i] != 1 {
			t.Fatalf("job %d executed %d times", i, got[i])
		}
	}
}

func TestClusterQueuesStaticDivision(t *testing.T) {
	sys := NewDAS(2, 2)
	q := NewClusterQueues(sys)
	const jobs = 20
	executedBy := make(map[int]int) // job -> cluster
	sys.SpawnAt(0, "master", func(w *Worker) {
		for i := 0; i < jobs; i++ {
			q.PushTo(w, i%2, 32, i)
		}
		q.Close(w, 0)
		q.Close(w, 1)
	})
	sys.SpawnWorkers("w", func(w *Worker) {
		for {
			job, ok, closed := q.Pop(w, 32)
			if ok {
				executedBy[job.(int)] = w.Cluster()
				w.Compute(100 * time.Microsecond)
				continue
			}
			if closed {
				return
			}
			w.P.Sleep(50 * time.Microsecond)
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(executedBy) != jobs {
		t.Fatalf("executed %d jobs", len(executedBy))
	}
	for i := 0; i < jobs; i++ {
		if executedBy[i] != i%2 {
			t.Fatalf("job %d ran on cluster %d, want %d", i, executedBy[i], i%2)
		}
	}
}

func TestCentralQueueFromRemoteClusterCostsWAN(t *testing.T) {
	sys := NewDAS(2, 2)
	q := NewCentralQueue(sys, 0)
	sys.SpawnAt(0, "master", func(w *Worker) {
		q.Push(w, 32, 1)
		q.Close(w)
	})
	sys.SpawnAt(2, "remote-worker", func(w *Worker) {
		w.P.Sleep(time.Millisecond)
		q.Pop(w, 32)
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Net.Stats().InterRPC().Msgs != 1 {
		t.Fatalf("inter RPCs %d, want 1", sys.Net.Stats().InterRPC().Msgs)
	}
}

func TestStealOrderOriginalOffsets(t *testing.T) {
	topo := cluster.Topology{Clusters: 2, NodesPerCluster: 8}
	order := StealOrderOriginal(topo, 3)
	want := []cluster.NodeID{4, 5, 7, 11, 3 + 16 - 16} // offsets 1,2,4,8,16%16 -> skip self
	// offsets: 1,2,4,8 (16 == p so loop stops); want {4,5,7,11}
	want = want[:4]
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestStealOrderLocalFirstProperty(t *testing.T) {
	prop := func(cl8, npc8, self8 uint8) bool {
		cs := int(cl8%4) + 1
		npc := int(npc8%8) + 2
		topo := cluster.Topology{Clusters: cs, NodesPerCluster: npc}
		self := cluster.NodeID(int(self8) % topo.Compute())
		order := StealOrderLocalFirst(topo, self)
		if len(order) != topo.Compute()-1 {
			return false
		}
		seen := map[cluster.NodeID]bool{self: true}
		localPhase := true
		for _, v := range order {
			if seen[v] {
				return false // duplicate
			}
			seen[v] = true
			local := topo.SameCluster(self, v)
			if local && !localPhase {
				return false // local victim after a remote one
			}
			if !local {
				localPhase = false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdleMap(t *testing.T) {
	m := NewIdleMap(4)
	if m.AllIdle() || m.CountIdle() != 0 {
		t.Fatal("fresh map not all-busy")
	}
	m.Set(1, true)
	m.Set(3, true)
	if !m.Idle(1) || m.Idle(0) || m.CountIdle() != 2 {
		t.Fatal("Set/Idle broken")
	}
	c := m.Clone()
	c.Set(0, true)
	if m.Idle(0) {
		t.Fatal("Clone shares storage")
	}
	m.Set(0, true)
	m.Set(2, true)
	if !m.AllIdle() {
		t.Fatal("AllIdle false after setting all")
	}
}

func TestMetricsSeconds(t *testing.T) {
	m := Metrics{Elapsed: 1500 * time.Millisecond}
	if m.Seconds() != 1.5 {
		t.Fatalf("seconds %v", m.Seconds())
	}
}

// TestClusterCacheOnIrregularTopology: coordinators must map onto valid
// nodes whatever the per-cluster sizes.
func TestClusterCacheOnIrregularTopology(t *testing.T) {
	sys := NewSystem(Config{
		Topology: cluster.Irregular(3, 2, 4),
		Params:   cluster.DASParams(),
	})
	fetches := make(map[cluster.NodeID]int)
	cc := NewClusterCache(sys, "t", fetchCounter(sys, fetches))
	// Every node of the last cluster reads the same key from node 0.
	got := 0
	sys.SpawnWorkers("w", func(w *Worker) {
		if w.Cluster() != 2 {
			return
		}
		if cc.Get(w, 0, "k") == "payload" {
			got++
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("%d readers got data, want 4", got)
	}
	if fetches[0] != 1 {
		t.Fatalf("source fetched %d times, want 1", fetches[0])
	}
}

// TestCombinerOnIrregularTopology: the designated agents sit on the last
// node of each (differently sized) cluster and still deliver exactly once.
func TestCombinerOnIrregularTopology(t *testing.T) {
	sys := NewSystem(Config{
		Topology: cluster.Irregular(2, 5, 3),
		Params:   cluster.DASParams(),
	})
	cb := NewCombiner(sys, "t", 4096, 300*time.Microsecond)
	const nmsg = 12
	sys.SpawnAt(0, "sender", func(w *Worker) {
		for i := 0; i < nmsg; i++ {
			cb.Send(w, cluster.NodeID(2+i%8), orca.Tag{Op: "m", A: i}, 50, i)
		}
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nmsg; i++ {
		if _, ok := sys.RTS.TryRecvData(cluster.NodeID(2+i%8), orca.Tag{Op: "m", A: i}); !ok {
			t.Fatalf("message %d lost", i)
		}
	}
}
