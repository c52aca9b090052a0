package orca

import (
	"fmt"
	"sync/atomic"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// Op is one shared-object operation, function-shipped to wherever the state
// lives. Apply must be deterministic: for replicated objects it executes
// once against every replica, so all replicas stay identical.
//
// ArgBytes/ResBytes declare the simulated wire size of the operation's
// arguments and result; they determine transfer times and traffic accounting
// but the actual values travel by reference inside the simulator.
type Op struct {
	Name     string
	ArgBytes int
	ResBytes int
	ReadOnly bool
	Apply    func(state any) any
}

// Object is a shared object. Non-replicated objects have a single state copy
// at the owner node; replicated objects have one copy per compute node.
type Object struct {
	rts        *RTS
	id         int
	name       string
	futName    string // precomputed future name: invocations are the hot path
	replicated bool
	owner      cluster.NodeID
	state      any   // non-replicated state
	replicas   []any // per-compute-node state when replicated
}

// pendingBcast is a replicated write in flight. It is the wire record for
// its whole lifecycle — submit, ordering, distribution and per-node delivery
// — and is reference-counted: one reference per compute node's apply plus,
// for an ordered write, one for the writer consuming the result. The
// references drop on every delivering node, so on the sharded engine on
// several LPs at once: the count is atomic, and the last releaser returns
// the record to its own engine's free list (records migrate between lists).
type pendingBcast struct {
	obj     *Object
	op      Op
	from    cluster.NodeID
	orderer cluster.NodeID
	seq     uint64
	size    int // op.ArgBytes + HeaderBytes, the wire size everywhere
	refs    atomic.Int32
	// done is the writer's reply future, from its engine's futPool. It is
	// nil for an unordered AsyncUpdate, which nobody awaits and which every
	// node applies on arrival.
	done *sim.Future
	fn   func() // bound once: runs distributeNow for this record
}

// getBcast pops (or creates) a broadcast record from sh's free list.
func (r *RTS) getBcast(sh *rtsShard) *pendingBcast {
	b := sh.bcastPool.Get()
	if b.fn == nil {
		b.fn = func() { r.distributeNow(b) }
	}
	return b
}

// releaseBcast drops one reference, recycling the record into sh's free list
// at zero.
func (sh *rtsShard) releaseBcast(b *pendingBcast) {
	if b.refs.Add(-1) > 0 {
		return
	}
	b.obj, b.done = nil, nil
	b.op = Op{} // drop the closure reference while pooled
	sh.bcastPool.Put(b)
}

// NewObject creates a non-replicated shared object stored at owner, with
// initial state init.
func (r *RTS) NewObject(name string, owner cluster.NodeID, init any) *Object {
	o := &Object{rts: r, id: len(r.objects), name: name, futName: "rpc " + name, owner: owner, state: init}
	r.objects = append(r.objects, o)
	return o
}

// NewReplicated creates a replicated shared object; init is called once per
// compute node to build that node's copy (copies must start identical in the
// observable sense but may be distinct Go values).
func (r *RTS) NewReplicated(name string, init func(node cluster.NodeID) any) *Object {
	o := &Object{rts: r, id: len(r.objects), name: name, futName: "bcast " + name, replicated: true}
	o.replicas = make([]any, r.topo.Compute())
	for i := range o.replicas {
		o.replicas[i] = init(cluster.NodeID(i))
	}
	r.objects = append(r.objects, o)
	return o
}

// misuse panics with a consistent message for API calls that do not apply to
// the object's kind, naming the right call when there is an equivalent.
func (o *Object) misuse(op, hint string) {
	kind := "non-replicated"
	if o.replicated {
		kind = "replicated"
	}
	msg := fmt.Sprintf("orca: %s on %s object %q", op, kind, o.name)
	if hint != "" {
		msg += "; use " + hint
	}
	panic(msg)
}

// State returns a non-replicated object's state, for post-run inspection
// and owner-local reads the application accounts for itself.
func (o *Object) State() any {
	if o.replicated {
		o.misuse("State", "Replica")
	}
	return o.state
}

// Replica returns node id's copy of a replicated object's state, for
// local reads that the application accounts for itself.
func (o *Object) Replica(id cluster.NodeID) any {
	if !o.replicated {
		o.misuse("Replica", "State")
	}
	return o.replicas[id]
}

// Invoke executes op on the object on behalf of process p running at node
// from, blocking p in virtual time for the full cost of the invocation:
//
//   - non-replicated, from == owner: applied immediately (local operation);
//   - non-replicated, remote: an RPC to the owner;
//   - replicated, read-only: applied to the local replica;
//   - replicated, write: a totally-ordered broadcast through the sequencer;
//     p resumes when its own node has applied the update.
func (o *Object) Invoke(p *sim.Proc, from cluster.NodeID, op Op) any {
	r := o.rts
	if !o.replicated {
		if from == o.owner {
			r.nodes[from].sh.ops.LocalOps++
			return op.Apply(o.state)
		}
		return r.rpc(p, from, o, op)
	}
	if op.ReadOnly {
		r.nodes[from].sh.ops.LocalOps++
		return op.Apply(o.replicas[from])
	}
	sh := r.nodes[from].sh
	sh.ops.Bcasts++
	sh.ops.BcastBytes += int64(op.ArgBytes)
	b := r.getBcast(sh)
	b.obj, b.op, b.from = o, op, from
	b.size = op.ArgBytes + HeaderBytes
	b.done = sh.getFuture(o.futName)
	b.refs.Store(int32(r.topo.Compute()) + 1)
	r.seqr.Submit(r, from, b)
	res := b.done.Await(p)
	sh.futPool.Put(b.done)
	sh.releaseBcast(b) // the writer's own reference, after consuming res
	return res
}

// rpc performs a blocking remote invocation on a non-replicated object.
func (r *RTS) rpc(p *sim.Proc, from cluster.NodeID, o *Object, op Op) any {
	nd := r.nodes[from]
	sh := nd.sh
	sh.ops.RPCs++
	sh.ops.RPCBytes += int64(op.ArgBytes + op.ResBytes)
	f := sh.getFuture(o.futName)
	id := nd.newCall(f)
	q := sh.reqPool.Get()
	q.callID, q.objID, q.op = id, o.id, op
	r.send(netsim.Msg{
		From: from, To: o.owner, Kind: netsim.KindRPCReq,
		Size:    op.ArgBytes + HeaderBytes,
		Payload: q,
	})
	res := f.Await(p)
	sh.futPool.Put(f)
	return res
}

// AsyncUpdate applies a write to a replicated object using asynchronous,
// unordered broadcast: the sender's replica updates immediately and the
// sender continues without waiting; remote replicas update when the message
// arrives. Delivery is FIFO per sender but there is no global total order,
// so this is only safe for commutative, idempotent updates (like ACP's
// domain pruning) — exactly the condition the paper states.
func (o *Object) AsyncUpdate(from cluster.NodeID, op Op) any {
	if !o.replicated {
		o.misuse("AsyncUpdate", "")
	}
	r := o.rts
	sh := r.nodes[from].sh
	sh.ops.Bcasts++
	sh.ops.BcastBytes += int64(op.ArgBytes)
	// Hardware multicast in the sender's cluster (including the sender's own
	// copy, applied on delivery like any other member's) and one WAN message
	// per remote cluster, which its gateway re-broadcasts: the ordered
	// fan-out, started at the sender instead of an orderer.
	b := r.getBcast(sh)
	b.obj, b.op, b.from, b.orderer = o, op, from, from
	b.size = op.ArgBytes + HeaderBytes
	b.refs.Store(int32(r.topo.Compute()))
	r.distributeNow(b)
	return nil
}
