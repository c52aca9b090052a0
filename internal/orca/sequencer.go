package orca

import (
	"albatross/internal/cluster"
	"albatross/internal/netsim"
)

// Sequencer produces the global total order of replicated-object updates.
// Submit is called at the writer's node; the implementation must eventually
// assign the update a globally unique, gap-free sequence number and
// distribute it to all compute nodes (via RTS.distribute).
//
// Three protocols from the paper are provided:
//
//   - CentralSequencer: one sequencer machine orders everything. Efficient
//     on a single LAN cluster, a bottleneck across a WAN.
//   - RotatingSequencer: one sequencer per cluster; a token circulates and
//     each cluster broadcasts in turn (the paper's wide-area default).
//   - MigratingSequencer: a single sequencer that migrates to the cluster
//     that is sending, pipelining bursts from one sender (the ASP
//     optimization of Section 4.3).
type Sequencer interface {
	// Submit hands an update to the protocol at the writer's node.
	Submit(r *RTS, from cluster.NodeID, b *pendingBcast)
	// arrive handles a submission that has reached cluster c's sequencer
	// node (the receive side of Submit's forwarding message). Having it on
	// the interface lets one pooled submit record serve every protocol.
	arrive(r *RTS, c int, b *pendingBcast)
	// attach binds the protocol to a runtime at construction time.
	attach(r *RTS)
}

// seqNode returns the sequencer machine of cluster c: its first compute
// node, as in the paper's default configuration.
func seqNode(topo cluster.Topology, c int) cluster.NodeID { return topo.Node(c, 0) }

// tokenHopBytes is the wire size of sequencer control messages.
const tokenHopBytes = 16 + HeaderBytes

// submitMsg forwards an update to cluster c's sequencer node. Records are
// acquired from the sender's free list and recycled into the destination
// cluster's at delivery.
type submitMsg struct {
	s Sequencer
	c int // destination cluster (the sequencer node's cluster)
	b *pendingBcast
}

func (m *submitMsg) deliver(r *RTS) {
	s, c, b := m.s, m.c, m.b
	m.s, m.b = nil, nil
	r.sh[c].submitPool.Put(m)
	s.arrive(r, c, b)
}

// submit routes b from the writer's node to a sequencer node: it arrives at
// once when the writer is that node, and travels in a pooled submit message
// otherwise. Every protocol's Submit ends here.
func (r *RTS) submit(s Sequencer, from, to cluster.NodeID, b *pendingBcast) {
	c := r.net.ClusterOf(to)
	if from == to {
		s.arrive(r, c, b)
		return
	}
	m := r.nodes[from].sh.submitPool.Get()
	m.s, m.c, m.b = s, c, b
	r.send(netsim.Msg{
		From: from, To: to, Kind: netsim.KindBcast,
		Size:    b.size,
		Payload: m,
	})
}

// drainQueue orders and distributes every queued update of cluster c,
// keeping the queue's capacity for the next burst.
func drainQueue(r *RTS, queues [][]*pendingBcast, c int, next *uint64) {
	q := queues[c]
	if len(q) == 0 {
		return
	}
	// distribute only schedules events; nothing re-enters the queue while
	// this loop runs, so reusing the backing array is safe.
	queues[c] = q[:0]
	orderer := seqNode(r.topo, c)
	for i, b := range q {
		seq := *next
		*next++
		r.distribute(orderer, seq, b)
		q[i] = nil
	}
}

// CentralSequencer

// CentralSequencer orders all updates at one fixed node.
type CentralSequencer struct {
	node cluster.NodeID
	next uint64
}

// NewCentralSequencer creates a central sequencer at the given compute node.
func NewCentralSequencer(node cluster.NodeID) *CentralSequencer {
	return &CentralSequencer{node: node}
}

func (s *CentralSequencer) attach(r *RTS) {}

// Submit routes the update to the sequencer node, which assigns the next
// sequence number and distributes.
func (s *CentralSequencer) Submit(r *RTS, from cluster.NodeID, b *pendingBcast) {
	r.submit(s, from, s.node, b)
}

func (s *CentralSequencer) arrive(r *RTS, c int, b *pendingBcast) { s.order(r, b) }

func (s *CentralSequencer) order(r *RTS, b *pendingBcast) {
	seq := s.next
	s.next++
	r.distribute(s.node, seq, b)
}

// RotatingSequencer

// RotatingSequencer implements the paper's distributed sequencer: every
// cluster has a sequencer node holding a queue of local update requests,
// and an ordering token rotates round-robin over the clusters. A cluster's
// queue is drained only while it holds the token, so each cluster
// "broadcasts in turn"; a sender therefore waits WAN hops (up to a full
// token rotation) before its update is ordered — the behaviour the paper
// identifies as the major wide-area broadcast problem.
//
// The protocol is LP-pinned (DESIGN.md §5d): when idle the token parks at
// its home, cluster 0's sequencer node. A remote sequencer node with a
// non-empty queue sends one WAKE control message to the home node; the home
// node launches the token on a full rotation 0 → 1 → … → K-1 → 0, each stop
// draining that cluster's queue. Back home the token drains the home queue,
// starts another rotation if WAKEs arrived while it was out, and parks
// otherwise. Every piece of protocol state is owned by one cluster's
// sequencer node — the queues and wake flags by their own cluster, the
// parked flag and wake count by home — and the global sequence counter
// travels with the token, so every transition rides a real WAN message and
// the protocol runs unchanged (and byte-identically) on the sharded engine.
type RotatingSequencer struct {
	// next is the global sequence counter. It logically travels inside the
	// token: only the cluster currently holding (or hosting the parked)
	// token touches it, and possession transfers via the token message.
	next uint64

	// Per-cluster state, each slot touched only at its own sequencer node.
	queues   [][]*pendingBcast
	wakeSent []bool // a WAKE is in flight / the token will visit us

	// Home-cluster state, touched only at cluster 0's sequencer node.
	parked  bool // the token is parked at home
	wakeReq int  // WAKEs received while the token was rotating

	tok   *rotatingToken // the single token record (one token in flight)
	wakes []rotatingWake // per-cluster WAKE records (≤1 in flight each)
}

// NewRotatingSequencer creates the distributed per-cluster sequencer.
func NewRotatingSequencer() *RotatingSequencer { return &RotatingSequencer{} }

func (s *RotatingSequencer) attach(r *RTS) {
	s.queues = make([][]*pendingBcast, r.topo.Clusters)
	s.wakeSent = make([]bool, r.topo.Clusters)
	s.parked = true
	s.tok = &rotatingToken{s: s}
	s.wakes = make([]rotatingWake, r.topo.Clusters)
	for c := range s.wakes {
		s.wakes[c] = rotatingWake{s: s}
	}
}

// Submit sends the update to the sender's cluster sequencer, which queues it
// until the token arrives.
func (s *RotatingSequencer) Submit(r *RTS, from cluster.NodeID, b *pendingBcast) {
	r.submit(s, from, seqNode(r.topo, r.net.ClusterOf(from)), b)
}

func (s *RotatingSequencer) arrive(r *RTS, c int, b *pendingBcast) {
	s.queues[c] = append(s.queues[c], b)
	if c == 0 {
		// Home cluster: the token ends every rotation here, so a rotating
		// token drains this queue on return; a parked token drains it now.
		if s.parked {
			s.drain(r, 0)
		}
		return
	}
	if !s.wakeSent[c] {
		// First update since the token last visited: one WAKE to home. Any
		// token visit strictly after this instant drains us, so one WAKE
		// covers every update queued until that visit clears the flag.
		s.wakeSent[c] = true
		r.send(netsim.Msg{
			From: seqNode(r.topo, c), To: seqNode(r.topo, 0),
			Kind: netsim.KindControl, Size: tokenHopBytes,
			Payload: &s.wakes[c],
		})
	}
}

// drain orders and distributes every queued update of cluster c.
func (s *RotatingSequencer) drain(r *RTS, c int) { drainQueue(r, s.queues, c, &s.next) }

// launch sends the token from home on a full rotation (first hop 0 → 1).
func (s *RotatingSequencer) launch(r *RTS) {
	s.parked = false
	s.wakeReq = 0 // one full rotation visits (and drains) every cluster
	s.hop(r, 0)
}

// hop forwards the token from cluster c to the next cluster on the ring.
func (s *RotatingSequencer) hop(r *RTS, c int) {
	nextC := (c + 1) % r.topo.Clusters
	s.tok.c = nextC
	r.send(netsim.Msg{
		From: seqNode(r.topo, c), To: seqNode(r.topo, nextC),
		Kind: netsim.KindControl, Size: tokenHopBytes,
		Payload: s.tok,
	})
}

// rotatingWake asks the home cluster to launch the parked token.
type rotatingWake struct{ s *RotatingSequencer }

func (m *rotatingWake) deliver(r *RTS) {
	s := m.s
	if s.parked {
		s.launch(r)
		return
	}
	// Token already rotating: remember the wake — the requesting cluster may
	// have been visited (and its flag cleared) before its updates arrived, so
	// one more full rotation is needed after the current one returns. A wake
	// whose cluster was in fact served costs one empty rotation, nothing more.
	s.wakeReq++
}

type rotatingToken struct {
	s *RotatingSequencer
	c int
}

func (m *rotatingToken) deliver(r *RTS) {
	s := m.s
	c := m.c
	if c != 0 {
		s.wakeSent[c] = false
		s.drain(r, c)
		s.hop(r, c)
		return
	}
	// Back home: drain the home queue, then re-launch or park.
	s.drain(r, 0)
	if s.wakeReq > 0 {
		s.launch(r)
		return
	}
	s.parked = true
}

// MigratingSequencer

// MigratingSequencer keeps a single logical sequencer but migrates it to the
// cluster that wants to broadcast: a burst of updates from one cluster pays
// the WAN migration once (a request hop plus a hand-over hop) and is then
// ordered at LAN speed, pipelining computation and communication — the
// paper's ASP optimization.
//
// The protocol is LP-pinned (DESIGN.md §5d) through forwarding pointers:
// each cluster's sequencer node remembers the last cluster it handed the
// token to (lastKnown) and forwards migration requests along that chain. The
// WAN pipes are FIFO per directed cluster pair, and each forwarding hop
// x → y reuses the very edge the token itself travelled when x handed over
// to y, so a chasing request always arrives behind the token and catches it
// once it rests. Every piece of state is owned by one cluster's sequencer
// node and the sequence counter travels with the token.
type MigratingSequencer struct {
	// next is the global sequence counter; only the cluster currently
	// holding the token touches it, and possession transfers via the token
	// message.
	next uint64

	// Per-cluster state, each slot touched only at its own sequencer node.
	holds     []bool // the token rests here
	lastKnown []int  // last cluster we handed the token to (forwarding pointer)
	requested []bool // our migration request is outstanding
	queues    [][]*pendingBcast

	reqMsgs []migratingRequest // per-cluster request records (≤1 in flight each)
	tok     *migratingToken    // the single hand-over record
}

// NewMigratingSequencer creates a migrating sequencer, initially hosted by
// cluster 0.
func NewMigratingSequencer() *MigratingSequencer { return &MigratingSequencer{} }

func (s *MigratingSequencer) attach(r *RTS) {
	k := r.topo.Clusters
	s.holds = make([]bool, k)
	s.holds[0] = true
	s.lastKnown = make([]int, k) // everyone's first guess: cluster 0
	s.requested = make([]bool, k)
	s.queues = make([][]*pendingBcast, k)
	s.reqMsgs = make([]migratingRequest, k)
	for c := range s.reqMsgs {
		s.reqMsgs[c] = migratingRequest{s: s, c: c}
	}
	s.tok = &migratingToken{s: s}
}

// Submit sends the update to the sender's cluster sequencer node; if the
// sequencer is hosted there it orders immediately, otherwise the cluster
// requests a migration.
func (s *MigratingSequencer) Submit(r *RTS, from cluster.NodeID, b *pendingBcast) {
	r.submit(s, from, seqNode(r.topo, r.net.ClusterOf(from)), b)
}

// arrive handles an update that has reached its cluster sequencer node.
func (s *MigratingSequencer) arrive(r *RTS, c int, b *pendingBcast) {
	if s.holds[c] {
		seq := s.next
		s.next++
		r.distribute(seqNode(r.topo, c), seq, b)
		return
	}
	s.queues[c] = append(s.queues[c], b)
	if !s.requested[c] {
		// One migration request towards where we last knew the token to be;
		// holders along the chain forward it. While it is in flight the
		// token can only be heading here because of it, so one request
		// covers every update queued until the token arrives.
		s.requested[c] = true
		s.sendRequest(r, c, c, s.lastKnown[c])
	}
}

// sendRequest ships cluster c's migration request from cluster at to
// cluster to (the requester's first hop, or a forwarding hop).
func (s *MigratingSequencer) sendRequest(r *RTS, c, at, to int) {
	m := &s.reqMsgs[c]
	m.at = to
	r.send(netsim.Msg{
		From: seqNode(r.topo, at), To: seqNode(r.topo, to),
		Kind: netsim.KindControl, Size: tokenHopBytes,
		Payload: m,
	})
}

// migratingRequest asks whoever holds the sequencer to hand it over to
// cluster c. at is the cluster the request is currently addressed to,
// rewritten at every forwarding hop (the record is owned by the in-flight
// message, so each hop's handler may rewrite it for the next).
type migratingRequest struct {
	s  *MigratingSequencer
	c  int
	at int
}

func (m *migratingRequest) deliver(r *RTS) {
	s, c, x := m.s, m.c, m.at
	if !s.holds[x] {
		// The token moved on; chase it. FIFO pipes order this hop behind the
		// hand-over that set lastKnown[x], so the chase stays behind the
		// token and terminates when the token rests.
		s.sendRequest(r, c, x, s.lastKnown[x])
		return
	}
	// Hand over: we stop holding, remember the new host, ship the token.
	// The token never travels towards a cluster whose own request is still
	// in flight, so x != c here and the hop below is a real WAN message.
	s.holds[x] = false
	s.lastKnown[x] = c
	s.tok.c = c
	r.send(netsim.Msg{
		From: seqNode(r.topo, x), To: seqNode(r.topo, c),
		Kind: netsim.KindControl, Size: tokenHopBytes,
		Payload: s.tok,
	})
}

type migratingToken struct {
	s *MigratingSequencer
	c int
}

func (m *migratingToken) deliver(r *RTS) {
	s := m.s
	s.holds[m.c] = true
	s.requested[m.c] = false
	s.drain(r, m.c)
}

func (s *MigratingSequencer) drain(r *RTS, c int) { drainQueue(r, s.queues, c, &s.next) }
