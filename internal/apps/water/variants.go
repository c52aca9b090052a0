package water

import (
	"fmt"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// buildOriginal is the unmodified program: every processor pushes its
// positions to, and its force contributions across, the raw network — on a
// multicluster, the same block crosses the same WAN link once per consumer.
//
// Steady-state exchange allocates nothing: position snapshots live in
// two parity buffers per sender (the buffer of iteration t is reused at
// t+2, by which time every consumer has finished t+1 and no longer reads
// the t snapshot), force slices cycle through a shared pool, and iteration
// state lives in procState's parity ring.
func buildOriginal(sys *core.System, cfg Config, pos, vel []Vec, tgt, snd [][]int, blockLen func(int) int) {
	p := sys.Topo.Compute()
	states := make([]*procState, p)
	objs := make([]*orca.Object, p)
	for r := 0; r < p; r++ {
		states[r] = newProcState(r, p, len(tgt[r]), len(snd[r]), blockLen(r))
		objs[r] = sys.RTS.NewObject(fmt.Sprintf("water-mbox-%d", r), cluster.NodeID(r), states[r])
	}
	vps := forcePools(sys, blockLen(0))

	putPos := func(t, from int, data []Vec) orca.Op {
		return orca.Op{Name: "PutPos", ArgBytes: molBytes * len(data), ResBytes: 4,
			Apply: func(s any) any {
				st := s.(*procState).at(t)
				st.pos[from] = data
				st.posGot++
				if st.posFut != nil && st.posGot == st.posNeed {
					st.posFut.Set(nil)
				}
				return nil
			}}
	}
	putFrc := func(t, q int, data []Vec) orca.Op {
		// Apply executes at the owner q's node, so the freed buffer joins
		// the owner's cluster pool.
		vp := vps[sys.Net.ClusterOf(cluster.NodeID(q))]
		return orca.Op{Name: "PutFrc", ArgBytes: molBytes * len(data), ResBytes: 4,
			Apply: func(s any) any {
				st := s.(*procState).at(t)
				addInto(st.frcAgg, data)
				vp.Put(data)
				st.frcGot++
				if st.frcFut != nil && st.frcGot == st.frcNeed {
					st.frcFut.Set(nil)
				}
				return nil
			}}
	}

	sys.SpawnWorkers("water", func(w *core.Worker) {
		i := w.Rank()
		ps := states[i]
		vp := vps[w.Cluster()]
		lo, hi := core.Block(cfg.N, p, i)
		var mine [2][]Vec
		for k := range mine {
			mine[k] = make([]Vec, hi-lo)
		}
		fOwn := make([]Vec, hi-lo)
		frem := make([][]Vec, len(tgt[i]))
		for t := 0; t < cfg.Iters; t++ {
			// Push our positions to everyone that interacts with our block.
			mb := mine[t&1]
			copy(mb, pos[lo:hi])
			for _, j := range snd[i] {
				w.Invoke(objs[j], putPos(t, i, mb))
			}
			// Wait for the positions of the blocks we interact with.
			st := ps.at(t)
			if st.posGot < st.posNeed {
				st.posFut = ps.futFor(w.P.Engine())
				st.posFut.Await(w.P)
				st.posFut = nil
			}
			// Compute: internal pairs plus the half-shell cross blocks.
			for k := range fOwn {
				fOwn[k] = Vec{}
			}
			pairs := internalStep(pos, lo, hi, fOwn)
			for idx, q := range tgt[i] {
				fq := vp.Get(len(st.pos[q]))
				pairs += pairStepBlocks(pos[lo:hi], st.pos[q], fOwn, fq)
				frem[idx] = fq
			}
			w.Compute(time.Duration(pairs) * cfg.PairCost)
			// Send the computed forces back to their owners to be summed.
			for idx, q := range tgt[i] {
				w.Invoke(objs[q], putFrc(t, q, frem[idx]))
				frem[idx] = nil
			}
			// Wait for contributions to our own block.
			if st.frcGot < st.frcNeed {
				st.frcFut = ps.futFor(w.P.Engine())
				st.frcFut.Await(w.P)
				st.frcFut = nil
			}
			addInto(fOwn, st.frcAgg)
			integrate(cfg, pos, vel, lo, hi, fOwn)
		}
	})
}

// pairStepBlocks computes interactions between an owned block (backed by
// the live position array) and a received remote snapshot.
func pairStepBlocks(own []Vec, remote []Vec, fOwn, fRemote []Vec) int {
	pairs := 0
	for i := range own {
		for j := range remote {
			f := force(own[i], remote[j])
			for k := 0; k < 3; k++ {
				fOwn[i][k] += f[k]
				fRemote[j][k] -= f[k]
			}
			pairs++
		}
	}
	return pairs
}

// posStore is the per-processor published-positions service used by the
// optimized program: requests for an iteration not yet published wait until
// the owner publishes it.
//
// Publications and waiters live in parity slots. A request can be at most
// two iterations ahead of the publisher (a consumer at t+3 would have needed
// positions the owner only publishes at t+2), so the two parities never hold
// more than one pending iteration each; and by the time iteration t is
// published, everyone who needed t-2 has long fetched it, so its buffer is
// reused in place. The cluster cache may retain a stale alias of the buffer,
// but cache keys include the iteration and old keys are never read again.
type posStore struct {
	bufs      [2][]Vec
	published [2][]Vec
	pubT      [2]int
	waiting   [2][]*orca.Request
	waitT     [2]int
	bytes     int
}

func (s *posStore) publish(t int, src []Vec) {
	k := t & 1
	copy(s.bufs[k], src)
	s.published[k], s.pubT[k] = s.bufs[k], t
	if s.waitT[k] == t {
		w := s.waiting[k]
		for i, req := range w {
			req.Reply(s.bytes, s.bufs[k])
			w[i] = nil
		}
		s.waiting[k], s.waitT[k] = w[:0], -1
	}
}

// buildOptimized applies the paper's Water optimizations per opts: position
// reads go through a per-cluster coordinator cache (Cache), and force
// write-backs are reduced inside each cluster before one aggregate crosses
// the WAN (Reduce). A disabled option falls back to the direct pull/push
// path, so the ablation isolates each technique's contribution.
func buildOptimized(sys *core.System, cfg Config, pos, vel []Vec, tgt, snd [][]int, blockLen func(int) int, opts Options) {
	p := sys.Topo.Compute()
	topo := sys.Topo
	rts := sys.RTS
	vps := forcePools(sys, blockLen(0))

	stores := make([]*posStore, p)
	posSvc := rts.InternTag(orca.Tag{Op: "water-pos"})
	for r := 0; r < p; r++ {
		st := &posStore{
			pubT:  [2]int{-1, -1},
			waitT: [2]int{-1, -1},
			bytes: molBytes * blockLen(r),
		}
		for k := range st.bufs {
			st.bufs[k] = make([]Vec, blockLen(r))
		}
		stores[r] = st
		rts.HandleService(cluster.NodeID(r), posSvc, func(req *orca.Request) {
			t := req.Payload.(int)
			if k := t & 1; st.pubT[k] == t {
				req.Reply(st.bytes, st.published[k])
			} else {
				st.waitT[k] = t
				st.waiting[k] = append(st.waiting[k], req)
			}
		})
	}

	var cache *core.ClusterCache
	if opts.Cache {
		cache = core.NewClusterCache(sys, "water", func(pp *sim.Proc, at, source cluster.NodeID, key any) (any, int) {
			v := rts.Call(pp, at, source, posSvc, 8, key)
			return v, stores[int(source)].bytes
		})
	}
	var reducer *core.ClusterReducer
	if opts.Reduce {
		// Contributions and aggregates both come from, and return to, the
		// buffer pools: the first contribution of a round is copied into a
		// pooled accumulator, later ones are folded and recycled. A fold
		// runs at its engine's coordinators on contributions from that
		// engine's workers, so it closes over that engine's pool.
		reducer = core.NewClusterReducerPer(sys, "water", func(c int) core.CombineFunc {
			vp := vps[c]
			return func(acc, v any) any {
				contrib := v.([]Vec)
				if acc == nil {
					a := vp.Get(len(contrib))
					copy(a, contrib)
					vp.Put(contrib)
					return a
				}
				a := acc.([]Vec)
				addInto(a, contrib)
				vp.Put(contrib)
				return a
			}
		})
	}

	// Force messages are tagged by (destination, iteration parity): only
	// iterations t and t+1 can be in flight toward a collector still in t
	// (a t+2 sender implies the collector finished t), so parity alone
	// disambiguates and the tag space stays bounded.
	frcTags := [2][]orca.TagID{make([]orca.TagID, p), make([]orca.TagID, p)}
	for par := 0; par < 2; par++ {
		for q := 0; q < p; q++ {
			frcTags[par][q] = rts.InternTag(orca.Tag{Op: "water-frc", A: q, B: par})
		}
	}

	// expectLocal[q][c] = number of contributors to block q in cluster c.
	expectLocal := make([][]int, p)
	for q := 0; q < p; q++ {
		expectLocal[q] = make([]int, topo.Clusters)
		for _, j := range snd[q] {
			expectLocal[q][topo.ClusterOf(cluster.NodeID(j))]++
		}
	}
	// nAggs[q] = messages block q's owner receives per iteration: one per
	// contributor when forces go direct, pre-reduced per cluster otherwise.
	nAggs := make([]int, p)
	for q := 0; q < p; q++ {
		if reducer == nil {
			nAggs[q] = len(snd[q])
			continue
		}
		contributors := make([]cluster.NodeID, len(snd[q]))
		for k, j := range snd[q] {
			contributors[k] = cluster.NodeID(j)
		}
		nAggs[q] = reducer.ExpectedMessages(cluster.NodeID(q), contributors)
	}

	sys.SpawnWorkers("water", func(w *core.Worker) {
		i := w.Rank()
		vp := vps[w.Cluster()]
		lo, hi := core.Block(cfg.N, p, i)
		got := make([][]Vec, len(tgt[i]))
		fOwn := make([]Vec, hi-lo)
		for t := 0; t < cfg.Iters; t++ {
			stores[i].publish(t, pos[lo:hi])
			// Pull the blocks we interact with. With the cluster cache we
			// first warm it for every remote block (the coordinators know
			// the access pattern in advance), so by the time the blocking
			// reads arrive the WAN fetches are underway or done. Without
			// it every processor pulls across the WAN itself.
			if cache != nil {
				for _, q := range tgt[i] {
					cache.Prefetch(w, cluster.NodeID(q), t)
				}
			}
			for idx, q := range tgt[i] {
				if cache != nil {
					got[idx] = cache.Get(w, cluster.NodeID(q), t).([]Vec)
				} else {
					got[idx] = rts.Call(w.P, w.Node, cluster.NodeID(q), posSvc, 8, t).([]Vec)
				}
			}
			for k := range fOwn {
				fOwn[k] = Vec{}
			}
			pairs := internalStep(pos, lo, hi, fOwn)
			for idx, q := range tgt[i] {
				fq := vp.Get(len(got[idx]))
				pairs += pairStepBlocks(pos[lo:hi], got[idx], fOwn, fq)
				got[idx] = nil
				if reducer != nil {
					reducer.Put(w, cluster.NodeID(q), frcTags[t&1][q], molBytes*len(fq), fq, expectLocal[q][w.Cluster()])
				} else {
					w.SendID(cluster.NodeID(q), frcTags[t&1][q], molBytes*len(fq), fq)
				}
			}
			w.Compute(time.Duration(pairs) * cfg.PairCost)
			// Collect the (partially pre-reduced) contributions to our block.
			myID := frcTags[t&1][i]
			for k := 0; k < nAggs[i]; k++ {
				fa := w.RecvID(myID).([]Vec)
				addInto(fOwn, fa)
				vp.Put(fa)
			}
			integrate(cfg, pos, vel, lo, hi, fOwn)
		}
	})
}
