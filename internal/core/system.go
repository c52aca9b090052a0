// Package core is the paper's primary contribution turned into a library:
// a facade that assembles a simulated wide-area multilevel cluster (engine +
// two-level network + Orca-style runtime), plus reusable implementations of
// every wide-area optimization technique of the paper's Table 3 —
// cluster-level caching, cluster-level reduction, message combining,
// distributed job queues, and cluster-aware work-stealing policies.
//
// Applications build a System, spawn one Worker per compute node, and
// communicate through shared objects or messages; the harness then reads the
// run's Metrics (virtual elapsed time, logical operation counts, and
// intracluster/intercluster traffic).
package core

import (
	"fmt"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/orca"
	"albatross/internal/sim"
)

// Config describes one simulated platform.
type Config struct {
	Topology  cluster.Topology
	Params    cluster.Params
	Sequencer orca.Sequencer // nil selects the paper's default for the shape

	// Shards selects the cluster-sharded parallel engine: the simulation is
	// partitioned into min(Shards, Clusters) logical processes, each owning
	// the events of one or more whole clusters, synchronized by conservative
	// per-LP time fences derived from a per-route lookahead matrix — each
	// directed LP pair's fence distance is the cheapest routed path between
	// their clusters (see internal/sim and DESIGN.md §5c). 0 or 1 selects the sequential
	// engine. All eight applications, the sequenced broadcast protocols,
	// the reliability layer and fault injection run shard-safe — each
	// produces byte-identical results in both modes. The only remaining
	// sharded restriction is per-sample: WAN latency scales below 1
	// (profile or fault policy) are rejected because they would undercut
	// the engine's lookahead. Two callers set it: bench/'s sim-apps-sharded
	// workload and harness's sequential≡sharded identity tests.
	Shards int
}

// System is one assembled simulated platform.
type System struct {
	Engine *sim.Engine
	Net    *netsim.Network
	RTS    *orca.RTS
	Topo   cluster.Topology
}

// NewSystem assembles a platform from the configuration.
func NewSystem(cfg Config) *System {
	if err := cfg.Topology.Validate(); err != nil {
		panic(err)
	}
	e := sim.NewEngine()
	if s := cfg.Shards; s > 1 && cfg.Topology.Clusters > 1 {
		if s > cfg.Topology.Clusters {
			s = cfg.Topology.Clusters
		}
		e.Shard(s)
	}
	net := netsim.New(e, cfg.Topology, cfg.Params)
	rts := orca.New(net, cfg.Sequencer)
	return &System{Engine: e, Net: net, RTS: rts, Topo: cfg.Topology}
}

// EngineFor returns the engine that schedules events for the given node:
// the root engine sequentially, the node's cluster LP when sharded. All
// process spawns bound to a node must go through it.
func (s *System) EngineFor(node cluster.NodeID) *sim.Engine {
	return s.Net.EngineFor(s.Net.ClusterOf(node))
}

// NewDAS assembles a DAS-like platform with the paper's Table-1 parameters
// and the default sequencer for the shape.
func NewDAS(clusters, nodesPerCluster int) *System {
	return NewSystem(Config{
		Topology: cluster.DAS(clusters, nodesPerCluster),
		Params:   cluster.DASParams(),
	})
}

// Worker is one application process, bound to a compute node.
type Worker struct {
	Sys  *System
	P    *sim.Proc
	Node cluster.NodeID
}

// Rank is the worker's global rank (equal to its node number).
func (w *Worker) Rank() int { return int(w.Node) }

// NProcs is the total number of workers in the system.
func (w *Worker) NProcs() int { return w.Sys.Topo.Compute() }

// Cluster is the index of the worker's cluster.
func (w *Worker) Cluster() int { return w.Sys.Net.ClusterOf(w.Node) }

// Compute charges d of CPU work to the worker.
func (w *Worker) Compute(d time.Duration) { w.P.Compute(d) }

// Invoke executes a shared-object operation on behalf of this worker.
func (w *Worker) Invoke(o *orca.Object, op orca.Op) any { return o.Invoke(w.P, w.Node, op) }

// Call performs a blocking request to the service with interned tag svc at
// another node.
func (w *Worker) Call(to cluster.NodeID, svc orca.TagID, argBytes int, payload any) any {
	return w.Sys.RTS.Call(w.P, w.Node, to, svc, argBytes, payload)
}

// SendID transmits an asynchronous tagged message to another node. Tags are
// interned once with Sys.RTS.InternTag, so a send is a slice index with no
// lock or map probe.
func (w *Worker) SendID(to cluster.NodeID, id orca.TagID, size int, payload any) {
	w.Sys.RTS.SendDataID(w.Node, to, id, size, payload)
}

// RecvID blocks until a message with the interned tag addressed to this
// worker arrives.
func (w *Worker) RecvID(id orca.TagID) any { return w.Sys.RTS.RecvDataID(w.P, w.Node, id) }

// TryRecvID returns a queued message for the interned tag without blocking,
// once the worker's chained links (sim.Proc.Ahead) have run.
func (w *Worker) TryRecvID(id orca.TagID) (any, bool) {
	w.P.Sync()
	return w.Sys.RTS.TryRecvDataID(w.Node, id)
}

// PollID blocks until the earliest instant first + k·period (k ≥ 0) at which a
// message with the interned tag is queued, without taking it: the next
// TryRecvID returns it.
func (w *Worker) PollID(id orca.TagID, first, period time.Duration) {
	w.Sys.RTS.PollDataID(w.P, w.Node, id, first, period)
}

// SpawnWorkers starts one worker process per compute node running body.
func (s *System) SpawnWorkers(name string, body func(w *Worker)) {
	for i := 0; i < s.Topo.Compute(); i++ {
		w := &Worker{Sys: s, P: nil, Node: cluster.NodeID(i)}
		p := s.EngineFor(w.Node).Go(fmt.Sprintf("%s-%d", name, i), func(p *sim.Proc) {
			w.P = p
			body(w)
		})
		_ = p
	}
}

// SpawnAt starts a single process bound to the given compute node (for
// masters, coordinators and other per-node servers).
func (s *System) SpawnAt(node cluster.NodeID, name string, body func(w *Worker)) {
	w := &Worker{Sys: s, Node: node}
	s.EngineFor(node).Go(name, func(p *sim.Proc) {
		w.P = p
		body(w)
	})
}

// Run executes the simulation to completion and returns the run's metrics.
// A deadlock (processes blocked forever) is returned as an error. After the
// run the engine is shut down: daemon servers (and, on deadlock, stuck
// workers) release their goroutines, so sweeps that build many Systems do
// not leak. Simulation state stays readable for result verification.
func (s *System) Run() (Metrics, error) {
	err := s.Engine.Run()
	m := s.Metrics()
	s.Engine.Shutdown()
	return m, err
}

// ShardStats reports the per-LP window-synchronization counters of a
// sharded run (nil on the sequential engine). It is diagnostic output about
// the simulator itself — window occupancy and fence waits — and deliberately
// not part of Metrics, which describes the simulated platform and must stay
// byte-identical between engines.
func (s *System) ShardStats() []sim.LPStats { return s.Engine.ShardStats() }

// Metrics snapshots the run's measurements so far.
func (s *System) Metrics() Metrics {
	return Metrics{
		Elapsed: s.Engine.Now(),
		Net:     s.Net.Stats().Clone(),
		Ops:     s.RTS.Ops(),
		Links:   s.Net.PipeReports(),
		Classes: s.Net.ClassReports(),
	}
}

// Metrics aggregates one run's outcome.
type Metrics struct {
	Elapsed time.Duration
	Net     netsim.Stats
	Ops     orca.OpStats
	Links   []netsim.PipeReport  // per-directed-WAN-link load
	Classes []netsim.ClassReport // per-link-class streaming aggregates
}

// Seconds reports the elapsed virtual time in seconds.
func (m Metrics) Seconds() float64 { return m.Elapsed.Seconds() }

// Block returns the block [lo, hi) of n items that rank r of p owns: the
// first n%p ranks take one item more than the rest, and the blocks tile
// [0, n) in rank order.
func Block(n, p, r int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}
