// Package coll provides collective communication operations (broadcast,
// reduce, allreduce, barrier, gather, allgather) over a simulated
// multilevel cluster, in two strategies:
//
//   - Flat: classic binomial trees over the global rank space, oblivious to
//     the cluster structure — edges cross the WAN haphazardly, so a single
//     collective pays many wide-area latencies;
//   - WideArea: the paper's cluster-aware restructuring generalized (the
//     direct ancestor of the MagPIe-style collectives that later entered
//     MPI libraries): each cluster has a local root; wide-area links carry
//     exactly one message per remote cluster per operation, and everything
//     else moves at LAN speed.
//
// Every operation is collective: all workers of the system must call it,
// in the same order. Matching relies on that call order plus the network's
// per-channel FIFO delivery: a tag identifies (communicator, phase, sender
// or cluster), not the individual call, so the interned-tag space is small
// and fixed and repeated collectives allocate no tag or mailbox state.
package coll

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/core"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// Strategy selects the communication structure of the collectives.
type Strategy int

const (
	// Flat uses rank-space binomial trees, ignoring cluster boundaries.
	Flat Strategy = iota
	// WideArea uses cluster-local trees plus one WAN message per cluster.
	WideArea
)

func (s Strategy) String() string {
	if s == WideArea {
		return "wide-area"
	}
	return "flat"
}

// phase distinguishes the message streams of the collective algorithms; a
// wire tag is (communicator name, phase, aux). Calls are matched purely by
// order, which is sound because every tag pins down a single sender: every
// worker issues the same collectives in the same order, each send in call k
// has exactly one matching receive in call k, and the network delivers each
// (sender, receiver) channel in FIFO order, so same-tag messages arrive in
// call order and a receive can never observe a later call's message first.
// Each node has its own mailboxes, so a tag need not name its destination,
// and a sender may send several same-tag messages in one call when the
// receiver takes them in the same order (all-to-all's member → root leg, one
// part per remote cluster in cluster order). Phases whose natural sender is
// the per-call root (broadcast and scatter legs) therefore encode the root
// into aux; all others use the sender rank or the sending cluster (whose
// root is fixed) directly.
type phase int

const (
	phB  phase = iota // broadcast, global/WAN leg
	phBL              // broadcast, cluster-local tree
	phR               // reduce, global/WAN leg
	phRL              // reduce, cluster-local tree
	phG               // gather, global/WAN leg
	phGL              // gather, cluster-local leg
	phS               // scatter, global/WAN leg
	phSL              // scatter, cluster-local leg
	phA               // all-to-all, intra-cluster direct
	phAR              // all-to-all, member → cluster root
	phAB              // all-to-all, root → root bundle
	phAS              // all-to-all, root → member scatter
	numPhases
)

var phaseNames = [numPhases]string{"b", "bl", "r", "rl", "g", "gl", "s", "sl", "a", "ar", "ab", "as"}

// Comm is a communicator spanning all compute nodes of a system.
type Comm struct {
	sys      *core.System
	strategy Strategy
	name     string

	phNames [numPhases]string       // precomputed "name/phase" tag strings
	tids    [numPhases][]orca.TagID // interned tag per (phase, aux)

	all       []int   // ranks 0..p-1
	byCluster [][]int // per-cluster ranks, in order

	// AllToAll: each cluster root's own per-remote-cluster parts, indexed
	// [own cluster * Clusters + remote cluster] (every root stashes).
	stash [][]any

	// Free lists for the intermediate combined-message payloads of the
	// wide-area gather/scatter/all-to-all paths, by cluster
	// (netsim.PerEngine).
	pools []*commPools
}

// commPools is one engine's instance of the combined-payload free lists. A
// part may retire into a different pool than it came from (combined payloads
// cross the WAN).
type commPools struct {
	parts   sim.Slices[any]
	bundles sim.Slices[[]any]
}

// New creates a communicator. name must be unique per system.
func New(sys *core.System, name string, strategy Strategy) *Comm {
	c := &Comm{sys: sys, strategy: strategy, name: name}
	for ph := phase(0); ph < numPhases; ph++ {
		c.phNames[ph] = name + "/" + phaseNames[ph]
	}
	topo := sys.Topo
	c.all = make([]int, topo.Compute())
	for i := range c.all {
		c.all[i] = i
	}
	c.byCluster = make([][]int, topo.Clusters)
	for cl := 0; cl < topo.Clusters; cl++ {
		nodes := topo.Nodes(cl)
		ranks := make([]int, len(nodes))
		for i, n := range nodes {
			ranks[i] = int(n)
		}
		c.byCluster[cl] = ranks
	}
	c.stash = make([][]any, topo.Clusters*topo.Clusters)
	c.pools, _ = netsim.PerEngine(sys.Net, func(int) *commPools { return new(commPools) })
	c.intern()
	return c
}

// intern interns every (phase, aux) tag the strategy uses, each phase over
// its aux range: a rank or a cluster. Interning writes the runtime's tag
// tables, so it happens here, before any LP runs; collectives then only read
// c.tids.
func (c *Comm) intern() {
	p, k := c.sys.Topo.Compute(), c.sys.Topo.Clusters
	span := [numPhases]int{phB: p, phR: p, phG: p, phS: p, phA: p}
	if c.strategy == WideArea {
		span = [numPhases]int{phB: p, phBL: p, phR: k, phRL: p, phG: k, phGL: p,
			phS: p, phSL: p, phA: p, phAR: p, phAB: k, phAS: k}
	}
	for ph, n := range span {
		c.tids[ph] = make([]orca.TagID, n)
		for aux := range c.tids[ph] {
			c.tids[ph][aux] = c.sys.RTS.InternTag(orca.Tag{Op: c.phNames[ph], A: aux})
		}
	}
}

// tag returns the interned tag of (phase, aux): collectives neither format
// names nor probe maps.
func (c *Comm) tag(ph phase, aux int) orca.TagID { return c.tids[ph][aux] }

// CombineFunc folds two values (used by Reduce/AllReduce); it must be
// associative. acc is nil for the first value.
type CombineFunc = core.CombineFunc

// Bcast distributes data of the given size from root to every worker. It
// returns the received value (root returns its own data).
func (c *Comm) Bcast(w *core.Worker, root int, size int, data any) any {
	if c.strategy == Flat {
		return c.bcastTree(w, root, size, data, c.all, phB)
	}
	topo := c.sys.Topo
	rootCluster, myCluster, local, lr := c.localRoot(w, root)
	var v any
	switch {
	case w.Rank() == root:
		// Send once to each remote cluster's local root. The tag encodes
		// the root: it varies across calls, and call-order matching needs
		// one sender per tag.
		for cl := 0; cl < topo.Clusters; cl++ {
			if cl == rootCluster {
				continue
			}
			w.SendID(cluster.NodeID(c.byCluster[cl][0]), c.tag(phB, root), size, data)
		}
		v = data
	case w.Rank() == lr && myCluster != rootCluster:
		v = w.RecvID(c.tag(phB, root))
	}
	// Distribute within the cluster, rooted at the cluster root (or the
	// global root for its own cluster); v is nil everywhere but at lr.
	return c.bcastTree(w, lr, size, v, local, phBL)
}

// localRoot places w in a two-level collective rooted at root: root's
// cluster, w's cluster and its ranks, and w's cluster-local root, which is
// root itself in root's cluster and the cluster's first rank elsewhere.
func (c *Comm) localRoot(w *core.Worker, root int) (rootCluster, myCluster int, local []int, lr int) {
	rootCluster, myCluster = c.sys.Net.ClusterOf(cluster.NodeID(root)), w.Cluster()
	local = c.byCluster[myCluster]
	lr = local[0]
	if myCluster == rootCluster {
		lr = root
	}
	return rootCluster, myCluster, local, lr
}

// bcastTree runs the standard binomial broadcast over the given rank group:
// relative to the root, a node receives at its lowest set bit and forwards
// to every position below that bit.
func (c *Comm) bcastTree(w *core.Worker, root, size int, data any, group []int, ph phase) any {
	n := len(group)
	me := indexOf(group, w.Rank())
	if me < 0 {
		panic(fmt.Sprintf("coll: rank %d not in group", w.Rank()))
	}
	r := indexOf(group, root)
	if r < 0 {
		panic(fmt.Sprintf("coll: root %d not in group", root))
	}
	rel := (me - r + n) % n
	v := data
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := group[(rel-mask+r)%n]
			v = w.RecvID(c.tag(ph, parent))
			break
		}
		mask <<= 1
	}
	for cm := mask >> 1; cm > 0; cm >>= 1 {
		if rel+cm < n {
			child := group[(rel+cm+r)%n]
			w.SendID(cluster.NodeID(child), c.tag(ph, w.Rank()), size, v)
		}
	}
	return v
}

// Reduce folds every worker's value with combine; the result arrives at
// root (others return nil).
func (c *Comm) Reduce(w *core.Worker, root int, size int, value any, combine CombineFunc) any {
	if c.strategy == Flat {
		return c.reduceTree(w, root, size, value, combine, c.all, phR)
	}
	topo := c.sys.Topo
	rootCluster, myCluster, local, lr := c.localRoot(w, root)
	partial := c.reduceTree(w, lr, size, value, combine, local, phRL)
	if w.Rank() != lr {
		return nil
	}
	if myCluster != rootCluster {
		// Ship the cluster's partial to the global root: one WAN message.
		w.SendID(cluster.NodeID(root), c.tag(phR, myCluster), size, partial)
		return nil
	}
	// Global root: fold in one partial per remote cluster.
	acc := partial
	for cl := 0; cl < topo.Clusters; cl++ {
		if cl == rootCluster {
			continue
		}
		acc = combine(acc, w.RecvID(c.tag(phR, cl)))
	}
	return acc
}

// reduceTree runs the mirror-image binomial reduction over the group: a
// node folds in one child per zero bit below its lowest set bit, then sends
// the partial to its parent; the root folds everything.
func (c *Comm) reduceTree(w *core.Worker, root, size int, value any, combine CombineFunc, group []int, ph phase) any {
	n := len(group)
	me := indexOf(group, w.Rank())
	r := indexOf(group, root)
	rel := (me - r + n) % n
	acc := combine(nil, value)
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := group[(rel-mask+r)%n]
			w.SendID(cluster.NodeID(parent), c.tag(ph, w.Rank()), size, acc)
			return nil
		}
		if rel+mask < n {
			child := group[(rel+mask+r)%n]
			acc = combine(acc, w.RecvID(c.tag(ph, child)))
		}
		mask <<= 1
	}
	return acc
}

// AllReduce folds every worker's value and returns the result everywhere.
func (c *Comm) AllReduce(w *core.Worker, size int, value any, combine CombineFunc) any {
	v := c.Reduce(w, 0, size, value, combine)
	return c.Bcast(w, 0, size, v)
}

// barrierCombine is the do-nothing fold of Barrier, hoisted so repeated
// barriers allocate no closure.
func barrierCombine(acc, v any) any { return 0 }

// Barrier blocks until every worker has arrived (an empty allreduce).
func (c *Comm) Barrier(w *core.Worker) {
	c.AllReduce(w, 4, 0, barrierCombine)
}

// Gather collects every worker's value at root, indexed by rank; others
// return nil. size is the per-contribution wire size.
func (c *Comm) Gather(w *core.Worker, root int, size int, value any) []any {
	p := c.sys.Topo.Compute()
	if c.strategy == Flat {
		if w.Rank() != root {
			w.SendID(cluster.NodeID(root), c.tag(phG, w.Rank()), size, value)
			return nil
		}
		out := make([]any, p)
		out[root] = value
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			out[r] = w.RecvID(c.tag(phG, r))
		}
		return out
	}
	topo := c.sys.Topo
	rootCluster, myCluster, local, lr := c.localRoot(w, root)
	if w.Rank() != lr {
		w.SendID(cluster.NodeID(lr), c.tag(phGL, w.Rank()), size, value)
		return nil
	}
	// Cluster root gathers its cluster into a positional slice (indexed
	// like local)...
	pl := c.pools[myCluster]
	part := pl.parts.Get(len(local))
	for i, r := range local {
		if r == w.Rank() {
			part[i] = value
			continue
		}
		part[i] = w.RecvID(c.tag(phGL, r))
	}
	if myCluster != rootCluster {
		// ... and ships one combined message across the WAN.
		w.SendID(cluster.NodeID(root), c.tag(phG, myCluster), size*len(local), part)
		return nil
	}
	out := make([]any, p)
	for i, r := range local {
		out[r] = part[i]
	}
	pl.parts.Put(part)
	for cl := 0; cl < topo.Clusters; cl++ {
		if cl == rootCluster {
			continue
		}
		rp := w.RecvID(c.tag(phG, cl)).([]any)
		for i, r := range c.byCluster[cl] {
			out[r] = rp[i]
		}
		pl.parts.Put(rp)
	}
	return out
}

// AllGather collects every worker's value everywhere.
func (c *Comm) AllGather(w *core.Worker, size int, value any) []any {
	all := c.Gather(w, 0, size, value)
	p := c.sys.Topo.Compute()
	v := c.Bcast(w, 0, size*p, all)
	return v.([]any)
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// Scatter distributes per-rank values from root: worker r receives
// values[r] (indexed by global rank; only root's values matter). size is
// the per-element wire size.
func (c *Comm) Scatter(w *core.Worker, root int, size int, values []any) any {
	p := c.sys.Topo.Compute()
	if c.strategy == Flat {
		// Tags encode the root: it is the sender and varies across calls.
		if w.Rank() == root {
			for r := 0; r < p; r++ {
				if r == root {
					continue
				}
				w.SendID(cluster.NodeID(r), c.tag(phS, root), size, values[r])
			}
			return values[root]
		}
		return w.RecvID(c.tag(phS, root))
	}
	topo := c.sys.Topo
	rootCluster, myCluster, local, lr := c.localRoot(w, root)
	pl := c.pools[myCluster]
	switch {
	case w.Rank() == root:
		// One combined message per remote cluster, to its local root.
		for cl := 0; cl < topo.Clusters; cl++ {
			if cl == rootCluster {
				continue
			}
			ranks := c.byCluster[cl]
			part := pl.parts.Get(len(ranks))
			for i, r := range ranks {
				part[i] = values[r]
			}
			w.SendID(cluster.NodeID(ranks[0]), c.tag(phS, root), size*len(ranks), part)
		}
		// Own cluster directly (root is this cluster's scatter sender).
		for _, r := range local {
			if r == root {
				continue
			}
			w.SendID(cluster.NodeID(r), c.tag(phSL, root), size, values[r])
		}
		return values[root]
	case w.Rank() == lr && myCluster != rootCluster:
		part := w.RecvID(c.tag(phS, root)).([]any)
		var own any
		for i, r := range local {
			if r == lr {
				own = part[i]
				continue
			}
			w.SendID(cluster.NodeID(r), c.tag(phSL, lr), size, part[i])
		}
		pl.parts.Put(part)
		return own
	default:
		return w.RecvID(c.tag(phSL, lr))
	}
}

// AllToAll performs a personalized exchange: worker r sends values[q] to
// every worker q and receives a slice indexed by sender rank. The wide-area
// strategy routes all intercluster traffic through the cluster roots, which
// exchange one combined message per cluster pair (the paper's cluster-level
// message combining applied to a collective). All combined payloads are
// positional slices: a per-cluster part is indexed like that cluster's rank
// list, and a root-to-root bundle is indexed [destination][sender].
func (c *Comm) AllToAll(w *core.Worker, size int, values []any) []any {
	topo := c.sys.Topo
	p := topo.Compute()
	out := make([]any, p)
	out[w.Rank()] = values[w.Rank()]
	if c.strategy == Flat {
		for q := 0; q < p; q++ {
			if q == w.Rank() {
				continue
			}
			w.SendID(cluster.NodeID(q), c.tag(phA, w.Rank()), size, values[q])
		}
		for q := 0; q < p; q++ {
			if q == w.Rank() {
				continue
			}
			out[q] = w.RecvID(c.tag(phA, q))
		}
		return out
	}
	myCluster := w.Cluster()
	local := c.byCluster[myCluster]
	lr := local[0]
	pl := c.pools[myCluster]
	// Intra-cluster legs go direct; intercluster legs go through the
	// cluster roots as combined bundles.
	for q := 0; q < p; q++ {
		if q == w.Rank() {
			continue
		}
		if c.sys.Net.ClusterOf(cluster.NodeID(q)) == myCluster {
			w.SendID(cluster.NodeID(q), c.tag(phA, w.Rank()), size, values[q])
		}
	}
	// Hand our remote-bound values to the cluster root, per remote cluster.
	for cl := 0; cl < topo.Clusters; cl++ {
		if cl == myCluster {
			continue
		}
		ranks := c.byCluster[cl]
		part := pl.parts.Get(len(ranks))
		for i, q := range ranks {
			part[i] = values[q]
		}
		if w.Rank() == lr {
			// Root keeps its own contribution for the bundle below.
			c.stash[myCluster*topo.Clusters+cl] = part
			continue
		}
		w.SendID(cluster.NodeID(lr), c.tag(phAR, w.Rank()), size*len(ranks), part)
	}
	if w.Rank() == lr {
		// Collect every member's per-cluster parts, bundle, exchange with
		// the other cluster roots, and scatter what comes back.
		for cl := 0; cl < topo.Clusters; cl++ {
			if cl == myCluster {
				continue
			}
			ranks := c.byCluster[cl]
			b := pl.bundles.Get(len(ranks))
			for di := range b {
				b[di] = pl.parts.Get(len(local))
			}
			addPart := func(si int, part []any) {
				for di, v := range part {
					b[di][si] = v
				}
			}
			for si, r := range local {
				if r == lr {
					st := myCluster*topo.Clusters + cl
					addPart(si, c.stash[st])
					pl.parts.Put(c.stash[st])
					c.stash[st] = nil
					continue
				}
				rp := w.RecvID(c.tag(phAR, r)).([]any)
				addPart(si, rp)
				pl.parts.Put(rp)
			}
			w.SendID(cluster.NodeID(ranks[0]), c.tag(phAB, myCluster),
				size*len(local)*len(ranks), b)
		}
		// Receive the bundles from the other cluster roots and scatter to
		// the local members, in rank order.
		for cl := 0; cl < topo.Clusters; cl++ {
			if cl == myCluster {
				continue
			}
			b := w.RecvID(c.tag(phAB, cl)).([][]any)
			srcRanks := c.byCluster[cl]
			for di, dest := range local {
				senders := b[di]
				if dest == lr {
					for si, v := range senders {
						out[srcRanks[si]] = v
					}
					pl.parts.Put(senders)
					continue
				}
				w.SendID(cluster.NodeID(dest), c.tag(phAS, cl), size*len(senders), senders)
			}
			pl.bundles.Put(b)
		}
	} else {
		for cl := 0; cl < topo.Clusters; cl++ {
			if cl == myCluster {
				continue
			}
			senders := w.RecvID(c.tag(phAS, cl)).([]any)
			for si, v := range senders {
				out[c.byCluster[cl][si]] = v
			}
			pl.parts.Put(senders)
		}
	}
	// Finally the intra-cluster receives.
	for _, q := range local {
		if q == w.Rank() {
			continue
		}
		out[q] = w.RecvID(c.tag(phA, q))
	}
	return out
}
