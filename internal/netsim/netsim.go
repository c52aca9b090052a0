// Package netsim emulates the paper's two-level communication substrate on
// top of the sim engine: a fast local-area network inside each cluster
// (Myrinet in the paper) and slow wide-area links between cluster gateways
// (ATM PVCs in the paper).
//
// A message between nodes of one cluster pays sender-NIC serialization plus
// LAN latency. A message between clusters travels: node → local gateway over
// Fast Ethernet, gateway → gateway over a per-directed-cluster-pair WAN pipe
// (a FIFO resource, so concurrent traffic queues and the link can saturate,
// like the paper's 6 Mbit/s PVCs), then gateway → node over Fast Ethernet.
//
// All traffic is metered by a Stats collector, split intracluster vs
// intercluster and by message kind — the raw material for the paper's
// Tables 2, 4 and 5.
//
// The paper's wide-area links never fail. An installed FaultPolicy makes
// them lose messages, and only lose them: a drop verdict where a message
// enters the WAN, a crashed gateway on its route, or a cut link it cannot
// route around in time. No fault copies a message or delays it on purpose,
// so the layers above recover by retransmission alone.
package netsim

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/sim"
)

// Kind classifies a message for accounting and dispatch.
type Kind uint8

const (
	// KindRPCReq is a remote-invocation request.
	KindRPCReq Kind = iota
	// KindRPCRep is a remote-invocation reply.
	KindRPCRep
	// KindBcast is broadcast data (a replicated-object update).
	KindBcast
	// KindData is bulk application data sent point-to-point.
	KindData
	// KindControl is protocol-internal control traffic (sequencer tokens,
	// migration requests, acknowledgements).
	KindControl
	// KindFrame is a gateway-coalesced transport frame: several application
	// messages packed into one WAN transmission (transport.go). It appears
	// only in the synthetic wire-unit Msg handed to fault policies; framed
	// traffic is metered by Stats' frame counters, not the per-kind tables.
	KindFrame
	numKinds
)

// NumKinds is the number of distinct message kinds.
const NumKinds = int(numKinds)

// kindNames is indexed by Kind; String is a plain array lookup so taps and
// trace labels pay no switch or fmt cost.
var kindNames = [NumKinds]string{"rpc-req", "rpc-rep", "bcast", "data", "control", "frame"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Msg is a simulated network message. Size is the application-level payload
// size in bytes; Payload carries the simulated content by reference. Tag and
// Seq are header words for the layer above: netsim carries them by value
// through every copy it makes — wire units, frames, hold queues — and never
// reads them. They fill the padding after Kind, so a Msg stays 48 bytes.
type Msg struct {
	From, To cluster.NodeID
	Kind     Kind
	Tag      uint16
	Seq      uint32
	Size     int
	Payload  any
}

// String renders the message compactly ("data 0>17 128B") without fmt, so
// taps and trace sinks can label messages cheaply.
func (m Msg) String() string {
	b := make([]byte, 0, 32)
	b = append(b, m.Kind.String()...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(m.From), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(m.To), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(m.Size), 10)
	b = append(b, 'B')
	return string(b)
}

// Handler consumes a delivered message. Handlers run in event context: they
// must not block, but they may wake processes and send further messages.
type Handler func(Msg)

// node is the per-machine network endpoint state.
type node struct {
	nicFree time.Duration // sender-side serialization horizon
	gwFree  time.Duration // gateway forwarding horizon (gateways only)
	handler Handler
}

// pipe is a directed WAN link between two cluster gateways (one of several
// parallel streams per directed pair when striping is on).
type pipe struct {
	free   time.Duration // transmission horizon (FIFO resource)
	arrive time.Duration // last scheduled arrival: the pipe is a physical FIFO
	// link, so a latency drop between two transmissions (a WANProfile wave
	// edge) must not let later traffic overtake earlier traffic. Arrivals are
	// clamped to be non-decreasing per pipe.
	lane *sim.Lane[hop] // scheduled arrivals, oldest first; nil until the pipe carries a unit

	// The pipe's one meter, updated on every transmission: PipeReports reads
	// it per pipe and ClassReports sums it per link class.
	busy    time.Duration // cumulative transmission time
	bytes   int64
	msgs    int64         // application messages carried
	frames  int64         // coalesced frames transmitted (0 when transport is off)
	sumWait time.Duration // queueing delay behind earlier traffic
	minWait time.Duration
	maxWait time.Duration
}

// delivery is a recyclable deliver-callback record. The closure is bound
// once per record and records are pooled, so a steady stream of messages
// schedules delivery events without allocating a fresh closure per message.
// A record returns to the free list it came from.
type delivery struct {
	n  *Network
	sh *netShard
	m  Msg
	fn func() // bound to (*delivery).run once, at record creation
}

func (d *delivery) run() {
	n, m := d.n, d.m
	d.m = Msg{} // drop the payload reference while pooled
	d.sh.pool.Put(d)
	n.deliver(m)
}

// netShard is one engine's instance of the network's mutable hot state
// (DESIGN.md §5c): the engine plus the free lists and traffic counters that
// the send/deliver path touches on every message.
type netShard struct {
	e        *sim.Engine
	stats    Stats
	pool     sim.Free[delivery]
	wirePool sim.Free[wireUnit] // WAN wire-unit records (transport.go)
}

// linkClass is a resolved wide-area link class: the graph's parameters with
// the stream count defaulted from Params.
type linkClass struct {
	name    string
	lat     time.Duration
	bw      float64
	streams int
}

// adjLink is one directed WAN link in a cluster's sorted adjacency list.
type adjLink struct {
	to    int32 // destination cluster
	class int32 // index into Network.classes
	pipes []pipe
}

// Network is the two-level network for one simulated system.
type Network struct {
	e     *sim.Engine
	topo  cluster.Topology
	par   cluster.Params
	nodes []node

	// Wide-area state, linear in physical links. adj[c] lists cluster c's
	// outgoing links sorted by destination, all built by New; p99[c][k]
	// estimates the queueing-delay tail of cluster c's transmissions on class
	// k. Both are per-source-cluster state: under a sharded engine each
	// top-level slot is touched only by its owner LP.
	graph     *cluster.Graph // topo.Graph(par): routes, link classes, physical links
	classes   []linkClass
	adj       [][]adjLink
	p99       [][]p2Quantile
	nclusters int
	xp        *xport        // gateway transport layer (nil = off: every message is its own wire unit)
	sharded   bool          // LPs run concurrently
	engs      []*sim.Engine // cluster → the engine that executes its events
	sh, each  []*netShard   // PerEngine: by cluster, and the distinct instances
	merged    Stats         // scratch for Stats() snapshots
	tap       Tap
	tapMu     sync.Mutex // serializes tap calls across LP threads when sharded

	// All-pairs routed latency floor between clusters (cluster a → cluster
	// b: min over paths of Σ per-hop class latency + software overhead +
	// gateway cost). Computed once when sharded (it derives the engine's
	// lookahead matrix) or when a fault policy installs on a transport-active
	// network (loss tombstones travel at the floor); nil otherwise. Read-only
	// once built.
	routeFloor [][]time.Duration

	// Routing and link fault domains (routefault.go). routes[c] is cluster
	// c's route row, materialized on its first WAN transmission.
	// linkChanges are the installed policy's link-state change instants;
	// hold[c] holds the bounded queues of wire units parked at c's gateway
	// while no route exists. Those two stay nil without link faults.
	routes      []routeRow
	linkChanges []time.Duration
	hold        []holdSet

	// Flattened topology tables: the send path answers "which cluster",
	// "is it a gateway" and "who are the local members" with one array
	// index instead of Topology's arithmetic (or, for Nodes, a fresh
	// slice allocation) per message.
	clusterOf []int              // node → cluster index
	isGW      []bool             // node → gateway flag
	gateways  []cluster.NodeID   // cluster → gateway node (multi-cluster only)
	members   [][]cluster.NodeID // cluster → compute nodes, in ID order

	// Precomputed per-message latency sums (exact Duration additions, so
	// arrival times are bit-identical to summing the parts on every send).
	lanDelay      time.Duration // LANLatency + 2*SoftwareOverhead
	lanBcastDelay time.Duration // LANBcastLatency + 2*SoftwareOverhead
	feDelay       time.Duration // FELatency + SoftwareOverhead
	wanDelay      time.Duration // SoftwareOverhead after WAN transit

	// wanProfile, if set, scales WAN latency and bandwidth over virtual
	// time (e.g. to model congestion waves). It must be a pure function of
	// its argument so runs stay deterministic.
	wanProfile WANProfile

	// fault, if set, injects wide-area faults (drops, gateway crashes, link
	// failures). The hooks cost one nil check
	// when no policy is installed.
	fault FaultPolicy
}

// FaultPolicy injects deterministic wide-area faults into the network. The
// network consults it only on the intercluster path; intracluster (LAN)
// traffic is never faulted, matching the paper's premise that the wide-area
// links are the unreliable resource. Implementations must be pure functions
// of virtual time plus their own deterministic state: the engine calls them
// in its deterministic event order, so a seeded policy reproduces the exact
// same fault sequence on every run. WAN quality is not a fault: it comes
// from SetWANProfile alone.
type FaultPolicy interface {
	// WANTransit rules on one message entering the WAN toward cluster cd at
	// its source cluster cs's gateway, at virtual time at: true loses it there.
	WANTransit(at time.Duration, cs, cd int, m Msg) (drop bool)
	// GatewayDown reports whether cluster c's gateway is crashed at time
	// at. m is the message about to traverse the gateway, so the policy
	// can account for the drop it induces by answering true.
	GatewayDown(at time.Duration, c int, m Msg) bool
	// LinkDown reports whether the directed link from→to carries nothing at
	// virtual time at. It must be a pure function of its arguments: the
	// router consults it from several LP threads concurrently.
	LinkDown(at time.Duration, from, to int) bool
	// LinkChanges returns the sorted instants at which some LinkDown answer
	// may change: LinkDown must be constant for every directed pair between
	// consecutive instants (a link-state epoch), so the router consults it
	// once per (source, destination, epoch). Nil means no link ever fails,
	// and the network keeps its static routes.
	LinkChanges() []time.Duration
	// Bind sizes the policy's per-cluster state for nclusters clusters,
	// before concurrent LPs start indexing it.
	Bind(nclusters int)
}

// SetFaultPolicy installs the fault injector (nil removes it, restoring the
// perfect network) and binds it to the cluster count. Install it before the
// run starts: switching policies mid-run leaves in-flight messages ruled by
// the old policy.
//
// Shard safety is the policy's contract, not the network's gate: the
// network consults WANTransit on the source cluster's LP, GatewayDown on
// the named cluster's LP, and LinkDown on the LP whose route row it fills, so a
// policy whose verdicts depend only on (virtual time, directed pair, that
// pair's own history) — as faults.Injector's per-pair streams do — produces
// byte-identical fault sequences sequentially and sharded.
func (n *Network) SetFaultPolicy(p FaultPolicy) {
	n.fault, n.linkChanges = p, nil
	clear(n.routes) // answers of the previous policy
	if p == nil {
		return
	}
	p.Bind(n.nclusters)
	if ch := p.LinkChanges(); len(ch) > 0 {
		n.linkChanges = ch
		if n.hold == nil {
			n.hold = make([]holdSet, n.nclusters)
		}
	}
	if n.xp != nil {
		// Any fault can lose a sequenced unit mid-route (a crashed
		// intermediate gateway needs no link cut), and its tombstone travels
		// at the routed latency floor (lose). Build the table now, on the
		// setup thread — the loss paths run on LP threads and only read it.
		n.routeFloors()
	}
}

// routeFloors returns (building on first use) the all-pairs minimum routed
// latency between clusters: per hop, the link class latency plus the
// receive-side software overhead plus the gateway forwarding cost, minimized
// over every path through the physical links. No message can cross from one
// cluster to another in less virtual time, however it is routed, rerouted or
// held. Call during setup only; concurrent LPs may read the result.
func (n *Network) routeFloors() [][]time.Duration {
	if n.routeFloor != nil {
		return n.routeFloor
	}
	hopExtra := n.par.SoftwareOverhead + n.par.GatewayCost
	n.routeFloor = n.graph.AllPairsCost(n.nclusters, func(class int) time.Duration {
		return n.graph.Classes[class].Latency + hopExtra
	})
	return n.routeFloor
}

// WANProfile maps a virtual instant to multiplicative (latency, bandwidth)
// scales for the wide-area links. The latency scale must be non-negative and
// the bandwidth scale positive.
type WANProfile func(at time.Duration) (latScale, bwScale float64)

// SetWANProfile installs a time-varying WAN quality model (nil removes it):
// the one source of WAN quality. Samples are checked as they are taken
// (wanQuality). On a sharded engine the profile must not return a latency
// scale below 1: shrinking WAN latency would undercut the lookahead the
// window fences are built on.
func (n *Network) SetWANProfile(p WANProfile) {
	n.wanProfile = p
}

// Tap observes every message at send time (for tracing/timelines). It runs
// synchronously on the send path and must be cheap. On a sharded engine
// taps are serialized by an internal mutex — observation order across LPs
// is nondeterministic (wall-clock interleaving), so use sharded taps for
// aggregate tracing, not ordered timelines.
type Tap func(at time.Duration, m Msg, intercluster bool)

// SetTap installs the message observer (nil removes it).
func (n *Network) SetTap(tap Tap) {
	n.tap = tap
}

// callTap invokes the installed tap, serializing when LP threads run
// concurrently. Callers must have checked n.tap != nil (one branch on the
// hot path, as before).
func (n *Network) callTap(at time.Duration, m Msg, inter bool) {
	if n.sharded {
		n.tapMu.Lock()
		defer n.tapMu.Unlock()
	}
	n.tap(at, m, inter)
}

// New creates a network for the given topology and parameters. It panics on
// an invalid platform; callers holding outside input check topo.Graph first.
func New(e *sim.Engine, topo cluster.Topology, par cluster.Params) *Network {
	graph, err := topo.Graph(par)
	if err != nil {
		panic(err)
	}
	transport := par.TransportEnabled() && topo.Clusters > 1
	defStreams := 1
	if transport && par.WANStreams > 1 {
		defStreams = par.WANStreams
	}
	if defStreams > math.MaxInt16 { // a wire unit's stream is an int16
		panic(fmt.Sprintf("netsim: WANStreams %d exceeds %d", defStreams, math.MaxInt16))
	}
	n := &Network{
		e:         e,
		topo:      topo,
		par:       par,
		nodes:     make([]node, topo.Total()),
		graph:     graph,
		nclusters: topo.Clusters,

		lanDelay:      par.LANLatency + 2*par.SoftwareOverhead,
		lanBcastDelay: par.LANBcastLatency + 2*par.SoftwareOverhead,
		feDelay:       par.FELatency + par.SoftwareOverhead,
		wanDelay:      par.SoftwareOverhead,
	}
	n.classes = make([]linkClass, len(graph.Classes))
	for i, c := range graph.Classes {
		s := c.Streams
		if s <= 0 {
			s = defStreams
		}
		n.classes[i] = linkClass{name: c.Name, lat: c.Latency, bw: c.Bandwidth, streams: s}
	}
	n.adj = make([][]adjLink, topo.Clusters)
	for _, l := range graph.Links {
		n.addLink(l.A, l.B, l.Class)
		n.addLink(l.B, l.A, l.Class)
	}
	// p99 and route rows materialize on a cluster's first WAN transmission
	// (p99For, route): clusters that never source wide-area traffic cost one
	// empty slot each.
	n.p99 = make([][]p2Quantile, topo.Clusters)
	n.routes = make([]routeRow, topo.Clusters)
	n.clusterOf = make([]int, topo.Total())
	n.isGW = make([]bool, topo.Total())
	for i := range n.clusterOf {
		n.clusterOf[i] = topo.ClusterOf(cluster.NodeID(i))
		n.isGW[i] = topo.IsGateway(cluster.NodeID(i))
	}
	// Clusters go to engines in contiguous ID blocks, not round-robin: the
	// topology DSL numbers clusters depth-first, so a block keeps whole
	// subtrees on one LP and the routed distance BETWEEN LPs stays as large
	// as the topology allows. Round-robin would scatter siblings across every
	// LP and collapse each pairwise floor to the fastest access link. The
	// plain engine is the one-block case.
	lps := e.Shards()
	n.sharded = len(lps) > 0
	if !n.sharded {
		lps = []*sim.Engine{e}
	}
	k := len(lps)
	lpOf := make([]int, topo.Clusters)
	n.engs = make([]*sim.Engine, topo.Clusters)
	base, rem := topo.Clusters/k, topo.Clusters%k
	for i, c := 0, 0; i < k && c < topo.Clusters; i++ {
		sz := base
		if i < rem {
			sz++
		}
		for j := 0; j < sz; j++ {
			lpOf[c], n.engs[c] = i, lps[i]
			c++
		}
	}
	n.sh, n.each = PerEngine(n, func(c int) *netShard { return &netShard{e: n.engs[c]} })
	if n.sharded {
		// Per-directed-LP-pair lookahead: the minimum routed latency floor
		// between any cluster on one LP and any cluster on the other. Every
		// cross-LP event is one WAN hop of some route (multi-hop routes
		// re-enter the schedule at each intermediate gateway), and a single
		// hop costs at least its class latency + software overhead +
		// gateway cost ≥ the end-to-end floor between its endpoint clusters
		// ≥ the LP-pair minimum. WAN profiles, reroutes and holds may only
		// raise a route's latency (checkWANScales rejects scales below 1),
		// so the matrix stays a conservative floor under faults. LPs left
		// without clusters (more LPs than clusters) never schedule; their
		// entries just need to be positive.
		floors := n.routeFloors()
		var maxF time.Duration
		for _, row := range floors {
			for _, v := range row {
				if v > maxF {
					maxF = v
				}
			}
		}
		if maxF == 0 {
			// Degenerate single-cluster shard: no cluster pairs exist, so
			// any positive figure serves the empty LPs.
			maxF = par.WANLatency + par.SoftwareOverhead + par.GatewayCost
		}
		m := make([][]time.Duration, k)
		for i := range m {
			m[i] = make([]time.Duration, k)
			for j := range m[i] {
				if i != j {
					m[i][j] = maxF
				}
			}
		}
		for a := 0; a < topo.Clusters; a++ {
			for b := 0; b < topo.Clusters; b++ {
				la, lb := lpOf[a], lpOf[b]
				if la != lb && floors[a][b] < m[la][lb] {
					m[la][lb] = floors[a][b]
				}
			}
		}
		e.SetLookaheadMatrix(m)
	}
	n.members = make([][]cluster.NodeID, topo.Clusters)
	for c := range n.members {
		n.members[c] = topo.Nodes(c)
	}
	if topo.Clusters > 1 {
		n.gateways = make([]cluster.NodeID, topo.Clusters)
		for c := range n.gateways {
			n.gateways[c] = topo.Gateway(c)
		}
	}
	if transport {
		n.xp = newXport(n)
	}
	return n
}

// addLink inserts the directed link a→b into a's adjacency list (construction
// time only; Graph.Validate has rejected duplicates).
func (n *Network) addLink(a, b, class int) {
	links := n.adj[a]
	lo := searchAdj(links, b)
	links = append(links, adjLink{})
	copy(links[lo+1:], links[lo:])
	links[lo] = adjLink{to: int32(b), class: int32(class), pipes: make([]pipe, n.classes[class].streams)}
	n.adj[a] = links
}

// searchAdj returns the insertion index of destination b in a sorted
// adjacency list (the index of the entry if present).
func searchAdj(links []adjLink, b int) int {
	lo, hi := 0, len(links)
	for lo < hi {
		mid := (lo + hi) >> 1
		if int(links[mid].to) < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// linkIndex returns the index of the directed WAN link cur→next in adj[cur]
// (route-row fills and egress setup). Routes only ever name physical links,
// so a miss is a routing bug.
func (n *Network) linkIndex(cur, next int) int {
	links := n.adj[cur]
	if lo := searchAdj(links, next); lo < len(links) && int(links[lo].to) == next {
		return lo
	}
	panic(fmt.Sprintf("netsim: route hop %d->%d has no physical link", cur, next))
}

// p99For returns cluster c's queueing-delay tail estimator for one link
// class, lazily materializing the cluster's row (per-source-cluster state
// owned by c's LP).
func (n *Network) p99For(c, class int) *p2Quantile {
	a := n.p99[c]
	if a == nil {
		a = make([]p2Quantile, len(n.classes))
		n.p99[c] = a
	}
	return &a[class]
}

// Engine returns the underlying simulation engine (the root when sharded).
func (n *Network) Engine() *sim.Engine { return n.e }

// EngineFor returns the engine that executes cluster c's events: the LP
// owning the cluster when sharded, otherwise the lone engine. Processes and
// timers belonging to a cluster's nodes must be scheduled on this engine.
func (n *Network) EngineFor(c int) *sim.Engine { return n.engs[c] }

// PerEngine is sim.PerEngine over n's cluster → engine map: one *T per
// engine, built by mk(c) for the engine's first cluster c and indexed by
// cluster. Every layer's hot mutable state is laid out by this one rule.
func PerEngine[T any](n *Network, mk func(c int) *T) (byCluster, each []*T) {
	return sim.PerEngine(n.engs, mk)
}

// Topology returns the network's topology.
func (n *Network) Topology() cluster.Topology { return n.topo }

// ClusterOf reports which cluster node id (compute or gateway) belongs to:
// one index into the network's flattened table, where Topology.ClusterOf
// scans the per-cluster sizes of a declared platform. Run-time paths use this.
func (n *Network) ClusterOf(id cluster.NodeID) int { return n.clusterOf[id] }

// Graph returns the network's wide-area link graph: routes, link classes and
// physical links.
func (n *Network) Graph() *cluster.Graph { return n.graph }

// Stats returns a snapshot of the traffic statistics collected so far,
// folded over the engines' counters (sums are order-independent, so the fold
// is deterministic). Call it again after more traffic rather than holding
// the pointer.
func (n *Network) Stats() *Stats {
	n.merged = Stats{}
	for _, sh := range n.each {
		n.merged.add(&sh.stats)
	}
	return &n.merged
}

// SetHandler installs the delivery callback for a node (nil removes it).
// Delivery is handler-only: every node a message reaches must have one.
func (n *Network) SetHandler(id cluster.NodeID, h Handler) {
	n.nodes[id].handler = h
}

// deliver hands msg to its destination's handler at the current virtual time.
func (n *Network) deliver(m Msg) {
	h := n.nodes[m.To].handler
	if h == nil {
		panic(fmt.Sprintf("netsim: invariant violated: %v delivered to node %d, which has no handler", m, m.To))
	}
	h(m)
}

// deliverAt schedules delivery of m at absolute virtual time at, reusing a
// pooled delivery record instead of allocating a per-message closure. Every
// caller already executes on the destination cluster's LP (local traffic
// stays on one LP; WAN traffic crossed over in transmitOn), so the schedule
// is a local At and the record cycles through a single shard's free list.
func (n *Network) deliverAt(at time.Duration, m Msg) {
	sh := n.sh[n.clusterOf[m.To]]
	d := sh.pool.Get()
	if d.fn == nil {
		d.n, d.sh = n, sh
		d.fn = d.run
	}
	d.m = m
	sh.e.At(at, d.fn)
}

// serialize reserves the sender-side NIC for size bytes at rate bw starting
// no earlier than now, returning the serialization finish time.
func serialize(free *time.Duration, now time.Duration, size int, bw float64) time.Duration {
	start := now
	if *free > start {
		start = *free
	}
	end := start + bwTime(size, bw)
	*free = end
	return end
}

// bwTime converts a byte count and a bytes/second rate to a duration.
func bwTime(size int, bw float64) time.Duration {
	return time.Duration(float64(size) / bw * float64(time.Second))
}

// maxMsgSize bounds Msg.Size: a WAN hop carries an unframed message's byte
// count in 32 bits.
const maxMsgSize = math.MaxInt32

// checkSize panics, naming the message, when its size is negative or past
// maxMsgSize.
func checkSize(m Msg) {
	if uint(m.Size) > maxMsgSize {
		panic(fmt.Sprintf("netsim: invariant violated: %v has size %d, outside [0, %d]", m, m.Size, maxMsgSize))
	}
}

// Send transmits m asynchronously; delivery happens at the simulated arrival
// time. It never blocks and is callable from process or event context. A
// size outside [0, math.MaxInt32] panics.
func (n *Network) Send(m Msg) {
	checkSize(m)
	src := n.sh[n.clusterOf[m.From]]
	if m.From == m.To {
		if n.tap != nil {
			n.callTap(src.e.Now(), m, false)
		}
		// Loopback: modelled as pure software overhead.
		src.stats.count(scopeIntra, m.Kind, m.Size)
		n.deliverAt(src.e.Now()+n.par.SoftwareOverhead, m)
		return
	}
	inter := n.clusterOf[m.From] != n.clusterOf[m.To]
	if n.tap != nil {
		n.callTap(src.e.Now(), m, inter)
	}
	if !inter {
		n.sendLAN(m)
		return
	}
	n.sendWAN(m)
}

// sendLAN delivers an intracluster message over the fast local network.
func (n *Network) sendLAN(m Msg) {
	sh := n.sh[n.clusterOf[m.From]]
	sh.stats.count(scopeIntra, m.Kind, m.Size)
	now := sh.e.Now()
	src := &n.nodes[m.From]
	end := serialize(&src.nicFree, now, m.Size, n.par.LANBandwidth)
	n.deliverAt(end+n.lanDelay, m)
}

// sendWAN starts an intercluster message on its way: node → local gateway
// over Fast Ethernet, then the wire-unit pipeline (transport.go) carries it
// gateway to gateway and on to the destination node.
func (n *Network) sendWAN(m Msg) {
	sh := n.sh[n.clusterOf[m.From]]
	sh.stats.count(scopeInter, m.Kind, m.Size)
	now := sh.e.Now()

	// Leg 1: node → local gateway over Fast Ethernet (skipped when the
	// sender is the gateway itself, e.g. forwarded protocol traffic).
	atLocalGW := now
	if !n.isGW[m.From] {
		src := &n.nodes[m.From]
		end := serialize(&src.nicFree, now, m.Size, n.par.FEBandwidth)
		atLocalGW = end + n.feDelay
	}

	u := n.getUnit(sh)
	u.cs, u.cd = int32(n.clusterOf[m.From]), int32(n.clusterOf[m.To])
	u.cur = u.cs
	u.msgs = append(u.msgs, m)
	u.bytes = m.Size
	sh.e.At(atLocalGW, u.fn) // same cluster: sender and its gateway share an LP
}

// durationLimit is the first float64 past the last representable Duration.
const durationLimit = 1 << 63

// wanQuality returns one link class's latency and the transmission time of
// size bytes over it, for a transmission that begins at time at: the class
// parameters, scaled by the installed WANProfile's sample if there is one.
// Samples are validated, so a bad one panics naming WANProfile instead of
// silently corrupting the arithmetic: a scaled latency or transmission time
// past the last Duration would wrap negative and make the WAN faster.
func (n *Network) wanQuality(at time.Duration, cl *linkClass, size int) (lat, xmit time.Duration) {
	if n.wanProfile == nil {
		return cl.lat, bwTime(size, cl.bw)
	}
	ls, bs := n.wanProfile(at)
	checkWANScales(n.sharded, at, ls, bs)
	lf, xf := float64(cl.lat)*ls, float64(size)/(cl.bw*bs)*float64(time.Second)
	lat, xmit = time.Duration(lf), time.Duration(xf)
	if !(lf < durationLimit && xf < durationLimit) || at+xmit+lat < at {
		panic(fmt.Sprintf("netsim: WANProfile returned WAN scales (latency %g, bandwidth %g) at %v under which a %d B transmission arrives past the last representable instant", ls, bs, at, size))
	}
	return lat, xmit
}

// checkWANScales rejects WANProfile samples that would corrupt transmission
// arithmetic. NaN fails both comparisons' complements, so it is caught too.
// On a sharded engine a latency scale below 1 is also rejected: it would
// shrink effective WAN latency under the lookahead the window fences are
// built on (bandwidth scales only move the departure instant, so any
// positive value is safe).
func checkWANScales(sharded bool, at time.Duration, ls, bs float64) {
	if !(ls >= 0) || !(bs > 0) {
		panic(fmt.Sprintf("netsim: WANProfile returned invalid WAN scales (latency %g, bandwidth %g) at %v; latency scale must be >= 0 and bandwidth scale > 0", ls, bs, at))
	}
	if sharded && !(ls >= 1) {
		panic(fmt.Sprintf("netsim: WANProfile returned latency scale %g at %v; scales below 1 would undercut the sharded engine's WAN lookahead", ls, at))
	}
}

// PipeReport describes the load on one directed WAN link over a run. When
// the transport layer stripes a pair over parallel pipes, each stream gets
// its own report; Stream is 0 otherwise.
type PipeReport struct {
	From, To    int           // cluster indices
	Stream      int           // stream index within the directed pair
	Msgs        int64         // application messages carried
	Frames      int64         // coalesced frames transmitted (0 when transport is off)
	Bytes       int64         // payload bytes transmitted
	Busy        time.Duration // cumulative transmission time
	MaxQueueing time.Duration // worst delay a transmission spent queued behind others
}

// Utilization reports the link's duty cycle over the elapsed virtual time.
func (r PipeReport) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.Busy) / float64(elapsed)
}

// Packing reports the link's average messages per frame (0 when the
// transport layer was off).
func (r PipeReport) Packing() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.Msgs) / float64(r.Frames)
}

// PipeReports returns per-directed-WAN-link load reports, ordered by
// (from, to, stream). Links that carried no traffic are omitted. On a
// multi-hop platform each physical link reports the traffic it forwarded,
// so one end-to-end message appears on every link of its route.
func (n *Network) PipeReports() []PipeReport {
	var out []PipeReport
	for cs := range n.adj {
		for i := range n.adj[cs] {
			l := &n.adj[cs][i]
			for k := range l.pipes {
				p := &l.pipes[k]
				if p.msgs == 0 {
					continue
				}
				out = append(out, PipeReport{
					From: cs, To: int(l.to), Stream: k,
					Msgs: p.msgs, Frames: p.frames, Bytes: p.bytes,
					Busy: p.busy, MaxQueueing: p.maxWait,
				})
			}
		}
	}
	return out
}

// BcastLocal physically broadcasts m.Payload to every compute node of the
// sender's cluster (including the sender) using the LAN's hardware multicast:
// the sender serializes once, all members receive after the broadcast
// latency. Gateways do not receive local broadcasts.
func (n *Network) BcastLocal(from cluster.NodeID, kind Kind, size int, payload any) {
	checkSize(Msg{From: from, To: from, Kind: kind, Size: size})
	sh := n.sh[n.clusterOf[from]]
	if n.tap != nil {
		n.callTap(sh.e.Now(), Msg{From: from, To: from, Kind: kind, Size: size}, false)
	}
	sh.stats.count(scopeIntra, kind, size)
	now := sh.e.Now()
	src := &n.nodes[from]
	end := serialize(&src.nicFree, now, size, n.par.LANBandwidth)
	arrive := end + n.lanBcastDelay
	for _, id := range n.members[n.clusterOf[from]] {
		n.deliverAt(arrive, Msg{From: from, To: id, Kind: kind, Size: size, Payload: payload})
	}
}
