// Package orca implements an Orca-style object-based parallel runtime on top
// of the netsim network, following the system described in the paper:
// processes communicate through shared objects; invocations on
// non-replicated objects are remote procedure calls to the owner; objects
// with a high read/write ratio are replicated on all machines, reads execute
// locally, and writes are function-shipped via a totally-ordered broadcast
// (write-update protocol), with the writer blocking until its own delivery.
//
// Total order is produced by a pluggable Sequencer: the paper's centralized
// LAN sequencer, its distributed per-cluster rotating sequencer for WANs,
// and the migrating sequencer used to optimize ASP. The package also exposes
// the lower-level primitives the paper's optimized C programs use: raw
// tagged point-to-point messages and application-level request/reply
// services.
//
// The data path is flattened for steady-state zero allocation: tags are
// interned to dense IDs that ride in the netsim.Msg.Tag header word, so a
// data message carries its payload with no record. A service is addressed
// by an interned tag too, and a service request travels as the Request its
// server reads. Every other protocol record (the pendingBcast of ordered
// and unordered updates, submit, RPC request/reply) lives on a free list
// and is recycled at delivery, and reply futures are pooled. See DESIGN.md
// §5b for why recycling at delivery is safe on both engines.
package orca

import (
	"fmt"
	"sync"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// HeaderBytes is the protocol header added to every message's payload size.
const HeaderBytes = 32

// RTS is the runtime system for one simulated parallel machine. One instance
// serves all compute nodes; per-node state is kept internally.
type RTS struct {
	e    *sim.Engine
	net  *netsim.Network
	topo cluster.Topology

	nodes   []*nodeRTS
	objects []*Object
	seqr    Sequencer

	// rel, when non-nil, interposes sequenced retransmitting channels on
	// intercluster sends (see rel.go). Nil in the default perfect-network
	// configuration: the data path then pays one nil check per send.
	rel *relLayer

	// Tag interning: every distinct Tag gets a dense TagID; per-node
	// mailbox lookup is then a slice index instead of a map probe.
	tagIDs map[Tag]TagID

	// sh maps each cluster to its engine's instance of the hot mutable
	// state, each lists the distinct instances (netsim.PerEngine).
	sh, each []*rtsShard

	// tagMu guards the tag-interning table: the only RTS map a sharded
	// run may touch mid-run (sharded apps should still intern at setup so
	// TagIDs stay deterministic; the lock makes a stray mid-run intern a
	// race-free nondeterminism bug instead of memory corruption).
	tagMu sync.Mutex
}

// rtsShard is one engine's instance of the runtime's mutable hot state
// (DESIGN.md §5c): the protocol-record free lists, pooled reply futures and
// the logical-operation counters. A record acquired on one LP and recycled
// on another migrates between free lists.
type rtsShard struct {
	e *sim.Engine

	// Free lists for the protocol records of the steady-state data path.
	// Records are recycled at delivery, so sustained messaging allocates
	// nothing.
	reqPool    sim.Free[rpcReq]
	repPool    sim.Free[rpcRep]
	bcastPool  sim.Free[pendingBcast]
	submitPool sim.Free[submitMsg]
	futPool    sim.Free[sim.Future]

	ops OpStats
}

// nodeRTS is the per-compute-node runtime state.
type nodeRTS struct {
	id        cluster.NodeID
	sh        *rtsShard         // the cluster's slice of the hot runtime state
	calls     []*sim.Future     // outstanding RPC/request replies, by slot
	freeCalls []uint32          // recycled call slots (call IDs are slot indices)
	services  map[TagID]service // registered application services, made on first use
	data      []*sim.Mailbox    // raw tagged message queues, by TagID

	// Totally-ordered delivery state: updates apply in global sequence
	// order (one order across all replicated objects, as in Orca's single
	// logical sequencer); out-of-order arrivals wait in the window.
	ordered sim.Reorder[*pendingBcast]
}

// newCall allocates a call slot for an outstanding reply, recycling slot
// indices so the table stays dense however many calls a run makes.
func (nd *nodeRTS) newCall(f *sim.Future) uint32 {
	if k := len(nd.freeCalls); k > 0 {
		id := nd.freeCalls[k-1]
		nd.freeCalls = nd.freeCalls[:k-1]
		nd.calls[id] = f
		return id
	}
	nd.calls = append(nd.calls, f)
	return uint32(len(nd.calls) - 1)
}

// takeCall resolves a call slot back to its future and frees the slot.
func (nd *nodeRTS) takeCall(id uint32) *sim.Future {
	if int(id) >= len(nd.calls) || nd.calls[id] == nil {
		panic(fmt.Sprintf("orca: stray reply %d at node %d", id, nd.id))
	}
	f := nd.calls[id]
	nd.calls[id] = nil
	nd.freeCalls = append(nd.freeCalls, id)
	return f
}

// OpStats counts logical runtime operations (as opposed to the physical
// messages metered by netsim.Stats).
type OpStats struct {
	RPCs       int64 // remote invocations on non-replicated objects
	RPCBytes   int64 // argument + result payload bytes of those RPCs
	Bcasts     int64 // totally-ordered broadcasts (replicated writes)
	BcastBytes int64 // argument payload bytes of those broadcasts
	LocalOps   int64 // local reads/owner-local invocations
	Requests   int64 // application-level service requests
	DataMsgs   int64 // raw tagged messages
	DataBytes  int64
}

// add folds another engine's counters into s.
func (s *OpStats) add(o *OpStats) {
	s.RPCs += o.RPCs
	s.RPCBytes += o.RPCBytes
	s.Bcasts += o.Bcasts
	s.BcastBytes += o.BcastBytes
	s.LocalOps += o.LocalOps
	s.Requests += o.Requests
	s.DataMsgs += o.DataMsgs
	s.DataBytes += o.DataBytes
}

// New creates a runtime bound to the given network, using seqr for
// totally-ordered broadcast. If seqr is nil, DefaultSequencer is used.
func New(net *netsim.Network, seqr Sequencer) *RTS {
	topo := net.Topology()
	r := &RTS{
		e:      net.Engine(),
		net:    net,
		topo:   topo,
		tagIDs: make(map[Tag]TagID),
	}
	r.sh, r.each = netsim.PerEngine(net, func(c int) *rtsShard {
		return &rtsShard{e: net.EngineFor(c)}
	})
	r.nodes = make([]*nodeRTS, topo.Compute())
	for i := range r.nodes {
		id := cluster.NodeID(i)
		r.nodes[i] = &nodeRTS{id: id, sh: r.sh[topo.ClusterOf(id)]}
		net.SetHandler(id, r.dispatchFor(id))
	}
	if topo.Clusters > 1 {
		for c := 0; c < topo.Clusters; c++ {
			gw := topo.Gateway(c)
			net.SetHandler(gw, r.gatewayHandler)
		}
	}
	if seqr == nil {
		seqr = DefaultSequencer(topo)
	}
	r.seqr = seqr
	seqr.attach(r)
	return r
}

// DefaultSequencer returns the sequencer the paper's system uses by default:
// a centralized sequencer on a single cluster, the distributed per-cluster
// rotating sequencer on a wide-area system.
func DefaultSequencer(topo cluster.Topology) Sequencer {
	if topo.Clusters > 1 {
		return NewRotatingSequencer()
	}
	return NewCentralSequencer(0)
}

// Ops returns the logical operation counters accumulated so far, summed
// over the engines' instances; integer sums are order-independent, so the
// fold is deterministic.
func (r *RTS) Ops() OpStats {
	var t OpStats
	for _, sh := range r.each {
		t.add(&sh.ops)
	}
	return t
}

// message payloads (internal protocol)

type rpcReq struct {
	callID uint32
	objID  int
	op     Op
}

type rpcRep struct {
	callID uint32
	result any
}

// getFuture pools the one-shot reply futures of RPCs and blocking calls:
// the caller must Put the future back on futPool once Await has consumed
// the value.
func (sh *rtsShard) getFuture(name string) *sim.Future {
	f := sh.futPool.Get()
	if f.Done() {
		f.Reset(name)
	} else { // fresh: a pooled future is always a resolved one
		*f = *sim.NewFuture(sh.e, name)
	}
	return f
}

// dispatchFor returns the network delivery handler of a compute node.
func (r *RTS) dispatchFor(id cluster.NodeID) netsim.Handler {
	nd := r.nodes[id]
	return func(m netsim.Msg) {
		if !r.intercepted(m) {
			r.dispatchPayload(id, nd, m)
		}
	}
}

// gatewayHandler is the network delivery handler of every gateway.
func (r *RTS) gatewayHandler(m netsim.Msg) {
	if !r.intercepted(m) {
		r.gatewayDispatch(m)
	}
}

// reply sends the result of call slot call from the serving node to the
// caller: the one reply of object RPCs and service calls alike, in a record
// of the serving node's pool (the reply executes at that node's LP).
func (r *RTS) reply(from, to cluster.NodeID, call uint32, resBytes int, result any) {
	rep := r.nodes[from].sh.repPool.Get()
	rep.callID, rep.result = call, result
	r.send(netsim.Msg{
		From: from, To: to, Kind: netsim.KindRPCRep,
		Size:    resBytes + HeaderBytes,
		Payload: rep,
	})
}

// dispatchPayload consumes one delivered message at a compute node. It is
// called by the node's network handler and, for messages that travelled in a
// reliable envelope, by the reliability layer after unwrapping. A data
// message is the one kind with a tag (Cast requests are KindData too).
func (r *RTS) dispatchPayload(id cluster.NodeID, nd *nodeRTS, m netsim.Msg) {
	if m.Tag != 0 {
		r.dataMailbox(nd, TagID(m.Tag-1)).Put(m.Payload)
		return
	}
	switch pl := m.Payload.(type) {
	case *rpcReq:
		obj := r.objects[pl.objID]
		res := pl.op.Apply(obj.state)
		resBytes, callID := pl.op.ResBytes, pl.callID
		pl.op = Op{} // drop the closure reference while pooled
		nd.sh.reqPool.Put(pl)
		r.reply(id, m.From, callID, resBytes, res)
	case *rpcRep:
		f := nd.takeCall(pl.callID)
		res := pl.result
		pl.result = nil
		nd.sh.repPool.Put(pl)
		f.Set(res)
	case *pendingBcast:
		if pl.done == nil {
			r.apply(id, nd, pl) // unordered: applies on arrival
		} else {
			r.applyOrdered(id, pl)
		}
	case *Request:
		r.serve(nd, pl)
	case seqProtoMsg:
		pl.deliver(r)
	default:
		panic(fmt.Sprintf("orca: unknown payload %T at node %d", m.Payload, id))
	}
}

// gatewayDispatch handles the one protocol message addressed to gateways, a
// broadcast relay (sequencer control messages go to compute nodes). Updates
// travel as their own records (no relay wrapper): the gateway re-broadcasts
// the very record it received into its cluster using hardware multicast.
func (r *RTS) gatewayDispatch(m netsim.Msg) {
	switch pl := m.Payload.(type) {
	case *pendingBcast:
		r.net.BcastLocal(m.To, netsim.KindBcast, m.Size, pl)
	default:
		panic(fmt.Sprintf("orca: unknown gateway payload %T", m.Payload))
	}
}

// seqProtoMsg is implemented by sequencer-internal control messages.
type seqProtoMsg interface{ deliver(r *RTS) }

// distribute sends an ordered broadcast to every compute node: hardware
// multicast in the orderer's cluster, one WAN message per remote cluster
// relayed through its gateway. orderer must be a compute node.
//
// Ordering costs no time. The fan-out is still deferred to its own event at
// the current instant, not run inline: the rotating sequencer drains its
// queue and then passes the token in one handler, so the token leaves the
// holder's network interface and crosses the FIFO WAN pipe ahead of that
// batch's copies, as when a sequencer forwards the token before it
// multicasts (TestFanOutFollowsToken).
func (r *RTS) distribute(orderer cluster.NodeID, seq uint64, b *pendingBcast) {
	// Every call site executes at the orderer's own node (the sequencer
	// protocols route each submission there first), so on a sharded engine
	// this is the LP-pinned sequencer mode of DESIGN.md §5d: the delivery
	// schedule is state of the orderer's LP, touched only from its thread,
	// and the fan-out in b.fn rides hardware multicast locally plus
	// ≥lookahead WAN hops remotely.
	e := r.sh[r.net.ClusterOf(orderer)].e
	b.orderer, b.seq = orderer, seq
	e.At(e.Now(), b.fn)
}

func (r *RTS) distributeNow(b *pendingBcast) {
	r.net.BcastLocal(b.orderer, netsim.KindBcast, b.size, b)
	oc := r.net.ClusterOf(b.orderer)
	for c := 0; c < r.topo.Clusters; c++ {
		if c == oc {
			continue
		}
		r.send(netsim.Msg{
			From: b.orderer, To: r.topo.Gateway(c), Kind: netsim.KindBcast,
			Size:    b.size,
			Payload: b,
		})
	}
}

// applyOrdered applies ordered update b at node id, buffering out-of-order
// arrivals in the node's reorder window so every node applies the same
// total order. Each sequence number reaches a node once: a second copy is an
// invariant violation, not an update to apply twice.
func (r *RTS) applyOrdered(id cluster.NodeID, b *pendingBcast) {
	nd := r.nodes[id]
	if !nd.ordered.Put(b.seq, b) {
		panic(fmt.Sprintf("orca: ordered update %d delivered twice to node %d", b.seq, id))
	}
	for {
		nb, ok := nd.ordered.Take()
		if !ok {
			return
		}
		r.apply(id, nd, nb)
	}
}

// apply applies an update at a node and drops the node's reference to it.
func (r *RTS) apply(id cluster.NodeID, nd *nodeRTS, nb *pendingBcast) {
	res := nb.op.Apply(nb.obj.replicas[id])
	if nb.done != nil && nb.from == id {
		// Writer semantics: the invocation returns (and unblocks)
		// when the writer's own copy has been updated.
		nb.done.Set(res)
	}
	nd.sh.releaseBcast(nb)
}
