package core

import (
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// Combiner implements the paper's RA optimization (Section 4.5): message
// combining at the cluster level. Small asynchronous intercluster messages
// are first sent to a designated machine in the sender's own cluster, which
// accumulates them and occasionally ships all messages with the same
// destination cluster as one large intercluster message; the receiving
// cluster's designated machine then scatters them locally.
//
// A buffer is flushed when it reaches flushBytes or when flushAfter elapses
// since its first pending message, whichever comes first.
//
// Item records and item slices are pooled: the receiving agent recycles
// them after scattering, so sustained combining allocates nothing beyond
// the flush timers. A record retires into the pool of the engine that frees
// it, which may differ from where it was allocated (DESIGN.md §5c).
type Combiner struct {
	sys        *System
	comb, scat orca.TagID // the agents' services: accumulate and scatter
	flushBytes int
	flushAfter time.Duration

	// per (source cluster, destination cluster) buffers, at the source's
	// designated combiner node
	bufs [][]combineBuf

	pools []*combinePools // by cluster (netsim.PerEngine)
}

// combinePools is one engine's instance of the combiner free lists.
type combinePools struct {
	itemPool  sim.Free[combineItem]
	slicePool sim.Slices[*combineItem]
}

// combineItem is one application message riding inside a combined message.
type combineItem struct {
	to      cluster.NodeID
	tag     orca.TagID
	size    int
	payload any
}

type combineBuf struct {
	items []*combineItem
	bytes int
	timer bool   // a flush timer is pending for the current generation
	gen   uint64 // bumped at every flush, so stale timers are ignored
}

// itemHeaderBytes is the per-item framing overhead inside a combined message.
const itemHeaderBytes = 8

// NewCombiner installs the per-cluster combining agents. Call before Run.
func NewCombiner(sys *System, name string, flushBytes int, flushAfter time.Duration) *Combiner {
	cb := &Combiner{
		sys:        sys,
		comb:       sys.RTS.InternTag(orca.Tag{Op: "comb:" + name}),
		scat:       sys.RTS.InternTag(orca.Tag{Op: "scat:" + name}),
		flushBytes: flushBytes, flushAfter: flushAfter,
	}
	topo := sys.Topo
	cb.bufs = make([][]combineBuf, topo.Clusters)
	cb.pools, _ = netsim.PerEngine(sys.Net, func(int) *combinePools { return new(combinePools) })
	for c := 0; c < topo.Clusters; c++ {
		cb.bufs[c] = make([]combineBuf, topo.Clusters)
		cb.install(c)
	}
	return cb
}

// agent returns the designated combining machine of cluster c: its last
// compute node (keeping it off the sequencer node).
func (cb *Combiner) agent(c int) cluster.NodeID {
	topo := cb.sys.Topo
	return topo.Node(c, topo.Size(c)-1)
}

func (cb *Combiner) install(c int) {
	rts := cb.sys.RTS
	agent := cb.agent(c)
	// Both handlers, and the flush timer below, run at the agent — i.e. on
	// cluster c's LP when sharded — so every touch of bufs[c] and pools[c]
	// is LP-local.
	pl := cb.pools[c]
	e := cb.sys.EngineFor(agent)
	// Outgoing side: accumulate and flush.
	rts.HandleService(agent, cb.comb, func(req *orca.Request) {
		it := req.Payload.(*combineItem)
		dc := cb.sys.Net.ClusterOf(it.to)
		buf := &cb.bufs[c][dc]
		if buf.items == nil {
			buf.items = pl.slicePool.Get(0)
		}
		buf.items = append(buf.items, it)
		buf.bytes += it.size + itemHeaderBytes
		if buf.bytes >= cb.flushBytes {
			cb.flush(c, dc)
			return
		}
		if !buf.timer {
			buf.timer = true
			gen := buf.gen
			e.After(cb.flushAfter, func() {
				if cb.bufs[c][dc].gen == gen { // not already flushed by size
					cb.flush(c, dc)
				}
			})
		}
	})
	// Incoming side: scatter a combined message locally, then recycle the
	// item records and the carrier slice.
	rts.HandleService(agent, cb.scat, func(req *orca.Request) {
		items := req.Payload.([]*combineItem)
		for _, it := range items {
			rts.SendDataID(agent, it.to, it.tag, it.size, it.payload)
			it.payload = nil
			pl.itemPool.Put(it)
		}
		pl.slicePool.Put(items)
	})
}

// flush ships cluster c's pending items for destination cluster dc as one
// combined intercluster message. There is always at least one: both callers
// flush right after an append, and a timer whose generation is still current
// saw no flush since.
func (cb *Combiner) flush(c, dc int) {
	buf := &cb.bufs[c][dc]
	items := buf.items
	bytes := buf.bytes
	buf.items = nil
	buf.bytes = 0
	buf.timer = false
	buf.gen++
	cb.sys.RTS.Cast(cb.agent(c), cb.agent(dc), cb.scat, bytes, items)
}

// SendID transmits an asynchronous message with an interned tag through the
// sender's cluster agent, combined with the other traffic for the
// destination's cluster. Callers send same-cluster messages directly: RA's
// optimized program combines only intercluster batches.
func (cb *Combiner) SendID(w *Worker, to cluster.NodeID, tag orca.TagID, size int, payload any) {
	c := cb.sys.Net.ClusterOf(w.Node)
	it := cb.pools[c].itemPool.Get()
	it.to, it.tag, it.size, it.payload = to, tag, size, payload
	cb.sys.RTS.Cast(w.Node, cb.agent(c), cb.comb, size, it)
}
