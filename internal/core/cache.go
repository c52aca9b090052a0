package core

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// FetchFunc reads data identified by key from its home node, on behalf of a
// process running at node at, and returns the data plus its simulated size
// in bytes. It typically performs one blocking Call to a service at source.
type FetchFunc func(p *sim.Proc, at, source cluster.NodeID, key any) (data any, size int)

// ClusterCache implements the paper's Water optimization (Section 4.1):
// caching of remote data at the cluster level so the same data never travels
// over the same WAN link more than once.
//
// For every remote processor P, one processor in each local cluster is
// designated the local coordinator for P. A process needing P's data issues
// an intracluster request to the coordinator; the coordinator fetches the
// data over the WAN on the first request for a key, caches it, and serves
// every later same-key request from the cache. Coherence is the
// application's concern: keys must distinguish versions (e.g. include the
// iteration number), which is safe because — as the paper notes — the
// coordinator knows in advance which processors read and write the data.
type ClusterCache struct {
	sys    *System
	fetch  FetchFunc
	stores map[storeKey]*cacheStore
	svc    []orca.TagID // svc[source] is source's coordinator service, interned once
}

type storeKey struct {
	cluster int
	source  cluster.NodeID
}

// cacheStore is the shared cache of one (cluster, source) coordinator. It
// is shared between the coordinator's server process and direct gets issued
// by the worker running on the coordinator node itself.
type cacheStore struct {
	cached   map[any]cacheEntry
	inflight map[any]*sim.Future
}

type cacheEntry struct {
	data any
	size int
}

// get returns the cached or fetched value for key, coalescing concurrent
// fetches of the same key into one.
func (st *cacheStore) get(cc *ClusterCache, p *sim.Proc, at, source cluster.NodeID, key any) cacheEntry {
	if e, ok := st.cached[key]; ok {
		return e
	}
	if f, ok := st.inflight[key]; ok {
		return f.Await(p).(cacheEntry)
	}
	f := sim.NewFuture(p.Engine(), fmt.Sprintf("cache fetch %v", key))
	st.inflight[key] = f
	data, size := cc.fetch(p, at, source, key)
	e := cacheEntry{data: data, size: size}
	st.cached[key] = e
	delete(st.inflight, key)
	f.Set(e)
	return e
}

// NewClusterCache installs coordinator server processes for every (cluster,
// remote source) pair and returns the cache facade. Call before System.Run.
func NewClusterCache(sys *System, name string, fetch FetchFunc) *ClusterCache {
	cc := &ClusterCache{sys: sys, fetch: fetch, stores: make(map[storeKey]*cacheStore)}
	topo := sys.Topo
	cc.svc = make([]orca.TagID, topo.Compute())
	for src := range cc.svc {
		cc.svc[src] = sys.RTS.InternTag(orca.Tag{Op: "cache:" + name, A: src})
	}
	for c := 0; c < topo.Clusters; c++ {
		for src := 0; src < topo.Compute(); src++ {
			source := cluster.NodeID(src)
			if topo.ClusterOf(source) == c {
				continue // only remote processors need a coordinator
			}
			st := &cacheStore{cached: make(map[any]cacheEntry), inflight: make(map[any]*sim.Future)}
			cc.stores[storeKey{c, source}] = st
			coord := cc.coordinator(c, source)
			mb := sys.RTS.RegisterService(coord, cc.svc[source])
			sys.spawnDaemon(coord, fmt.Sprintf("cache %s/cache:%s:%d@%d", name, name, src, coord),
				func(w *Worker) { cc.serve(w, mb, st, source) })
		}
	}
	return cc
}

// coordinator returns the node of cluster c that coordinates data of source.
// Coordinators are spread round-robin over the cluster's nodes.
func (cc *ClusterCache) coordinator(c int, source cluster.NodeID) cluster.NodeID {
	topo := cc.sys.Topo
	return topo.Node(c, int(source)%topo.Size(c))
}

// serve is the coordinator loop: the first request for a key triggers the
// WAN fetch; requests arriving during the fetch coalesce onto its future.
// Prefetch requests (casts) warm the cache without a reply.
func (cc *ClusterCache) serve(w *Worker, mb *sim.Mailbox, st *cacheStore, source cluster.NodeID) {
	for {
		req := orca.NextRequest(w.P, mb)
		e := st.get(cc, w.P, w.Node, source, req.Payload)
		if req.NeedsReply() {
			req.Reply(e.size, e.data)
		}
	}
}

// Prefetch asks the coordinator to start fetching source's data for key
// without blocking the caller. The paper's coordinators know in advance
// which processors will read which data, so warming the cluster cache ahead
// of the read phase is part of the same optimization. Same-cluster sources
// need no prefetch (reads are already LAN-fast) and none is sent.
func (cc *ClusterCache) Prefetch(w *Worker, source cluster.NodeID, key any) {
	net := cc.sys.Net
	c := net.ClusterOf(w.Node)
	if c == net.ClusterOf(source) {
		return
	}
	coord := cc.coordinator(c, source)
	if coord == w.Node {
		// The store is local; the coordinator daemon will fetch on the
		// first real request — casting to ourselves would not help.
		return
	}
	cc.sys.RTS.Cast(w.Node, coord, cc.svc[source], keyBytes, key)
}

// keyBytes is the simulated size of a cache-request key.
const keyBytes = 16

// Get returns source's data for key on behalf of worker w. Same-cluster
// sources are fetched directly (the normal fast path); remote sources go
// through the cluster coordinator. When w itself runs on the coordinator
// node it uses the shared cache directly, skipping the loopback request.
func (cc *ClusterCache) Get(w *Worker, source cluster.NodeID, key any) any {
	net := cc.sys.Net
	c := net.ClusterOf(w.Node)
	if c == net.ClusterOf(source) {
		data, _ := cc.fetch(w.P, w.Node, source, key)
		return data
	}
	coord := cc.coordinator(c, source)
	if coord == w.Node {
		return cc.stores[storeKey{c, source}].get(cc, w.P, w.Node, source, key).data
	}
	return w.Call(coord, cc.svc[source], keyBytes, key)
}

// spawnDaemon starts a server process that may stay parked forever.
func (s *System) spawnDaemon(node cluster.NodeID, name string, body func(w *Worker)) {
	w := &Worker{Sys: s, Node: node}
	s.EngineFor(node).Go(name, func(p *sim.Proc) {
		w.P = p
		p.SetDaemon(true)
		body(w)
	})
}
