package core

import (
	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// CombineFunc folds a contribution into an accumulator; acc is nil for the
// first contribution of a round.
type CombineFunc func(acc, value any) any

// ClusterReducer implements the paper's cluster-level reduction used by
// Water's write-back phase (Section 4.1, Table 3 "cluster-level reduction"):
// updates destined for a processor in a remote cluster are first sent to a
// local coordinator, which reduces them (e.g. adds force contributions) and
// transfers only the single combined result over the WAN. ATPG's statistics
// (Section 4.4) reduce the same way through per-cluster shared objects of
// their own (atpg-agg-N), since each worker contributes once per run.
//
// A round is identified by an interned orca.TagID. Contributors in the same
// cluster as the target bypass the reducer and send directly; contributors in
// a remote cluster Cast to their local coordinator together with the expected
// number of local contributors for that round, and the coordinator forwards
// one aggregate to the target when all have arrived. The target therefore
// receives one tagged message per remote cluster plus one per local
// contributor.
// Contribution and round records are pooled: coordinators recycle them as
// rounds are folded and forwarded, so sustained reduction traffic allocates
// nothing beyond what the application's combine function allocates. A
// contribution and its coordinator are always in the same cluster, so both
// use the same engine's pools (DESIGN.md §5c).
type ClusterReducer struct {
	sys   *System
	pools []*reducePools // by cluster (netsim.PerEngine)
	svc   []orca.TagID   // svc[target] is target's coordinator service, interned once
}

// reducePools is one engine's free lists (plus that engine's combine
// function, which may close over engine-local state such as buffer pools).
type reducePools struct {
	combine CombineFunc
	conPool sim.Free[reduceContribution]
	rndPool sim.Free[roundState]
}

// reduceContribution travels from a contributor to its local coordinator.
type reduceContribution struct {
	target cluster.NodeID
	tag    orca.TagID
	value  any
	expect int // local contributors for this (target, tag) round
	size   int // aggregate wire size when forwarded
}

// roundState accumulates one (target, tag) round at one coordinator.
type roundState struct {
	acc  any
	seen int
}

// NewClusterReducer installs one event-context coordinator per (cluster,
// remote target) pair. Call before System.Run.
func NewClusterReducer(sys *System, name string, combine CombineFunc) *ClusterReducer {
	return NewClusterReducerPer(sys, name, func(int) CombineFunc { return combine })
}

// NewClusterReducerPer is NewClusterReducer with a per-engine combine
// function: mk(c) builds the fold used by the coordinators on cluster c's
// engine (called once per engine, with its first cluster). Folds that touch
// engine-local state (e.g. a buffer pool the aggregates are drawn from) need
// this.
func NewClusterReducerPer(sys *System, name string, mk func(c int) CombineFunc) *ClusterReducer {
	cr := &ClusterReducer{sys: sys}
	topo := sys.Topo
	cr.svc = make([]orca.TagID, topo.Compute())
	for t := range cr.svc {
		cr.svc[t] = sys.RTS.InternTag(orca.Tag{Op: "reduce:" + name, A: t})
	}
	cr.pools, _ = netsim.PerEngine(sys.Net, func(c int) *reducePools { return &reducePools{combine: mk(c)} })
	for c := 0; c < topo.Clusters; c++ {
		for t := 0; t < topo.Compute(); t++ {
			target := cluster.NodeID(t)
			if topo.ClusterOf(target) == c {
				continue
			}
			coord := cr.coordinator(c, target)
			cr.install(coord, cr.svc[target])
		}
	}
	return cr
}

func (cr *ClusterReducer) coordinator(c int, target cluster.NodeID) cluster.NodeID {
	topo := cr.sys.Topo
	return topo.Node(c, int(target)%topo.Size(c))
}

// install registers the accumulate-and-forward handler at the coordinator.
// The handler runs at the coordinator's node, so it uses the coordinator's
// cluster pools — the same pools its (always same-cluster) contributors use.
func (cr *ClusterReducer) install(coord cluster.NodeID, svc orca.TagID) {
	rounds := make(map[orca.TagID]*roundState)
	rts := cr.sys.RTS
	pl := cr.pools[cr.sys.Net.ClusterOf(coord)]
	rts.HandleService(coord, svc, func(req *orca.Request) {
		con := req.Payload.(*reduceContribution)
		st, ok := rounds[con.tag]
		if !ok {
			st = pl.rndPool.Get()
			rounds[con.tag] = st
		}
		st.acc = pl.combine(st.acc, con.value)
		st.seen++
		target, tag, size, done := con.target, con.tag, con.size, st.seen >= con.expect
		con.value = nil
		pl.conPool.Put(con)
		if !done {
			return
		}
		delete(rounds, tag)
		acc := st.acc
		st.acc, st.seen = nil, 0
		pl.rndPool.Put(st)
		rts.SendDataID(coord, target, tag, size, acc)
	})
}

// Put contributes value to the (target, tag) round. size is the wire size
// of one contribution (and of the forwarded aggregate). expectLocal is the
// number of contributors in the caller's cluster for this round — known in
// advance, as the paper notes. Same-cluster targets are sent directly.
func (cr *ClusterReducer) Put(w *Worker, target cluster.NodeID, tag orca.TagID, size int, value any, expectLocal int) {
	net := cr.sys.Net
	c := net.ClusterOf(w.Node)
	if c == net.ClusterOf(target) {
		w.SendID(target, tag, size, value)
		return
	}
	coord := cr.coordinator(c, target)
	con := cr.pools[c].conPool.Get()
	con.target, con.tag, con.value, con.expect, con.size = target, tag, value, expectLocal, size
	cr.sys.RTS.Cast(w.Node, coord, cr.svc[target], size, con)
}

// ExpectedMessages reports how many tagged messages the target will receive
// for one round, given the set of contributing ranks (excluding the target
// itself): direct messages from its own cluster plus one aggregate per
// remote cluster with at least one contributor.
func (cr *ClusterReducer) ExpectedMessages(target cluster.NodeID, contributors []cluster.NodeID) int {
	net := cr.sys.Net
	tc := net.ClusterOf(target)
	n := 0
	remote := make(map[int]bool)
	for _, c := range contributors {
		if c == target {
			continue
		}
		if cc := net.ClusterOf(c); cc == tc {
			n++
		} else {
			remote[cc] = true
		}
	}
	return n + len(remote)
}
