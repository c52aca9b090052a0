package orca

import (
	"fmt"

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

	// applied, if non-nil, observes every ordered update as it is applied
	// at a node (used by applications that react to replicated writes).
	applied func(at cluster.NodeID, op Op, result any)
}

// pendingBcast is a replicated write travelling through the sequencer. It is
// the wire record for its whole lifecycle — submit, ordering, distribution
// and per-node delivery — and is reference-counted: one reference per
// compute node's apply plus one for the writer consuming the result, so the
// record (and its pooled done future) recycles exactly when the last node
// has applied it and the writer has resumed.
type pendingBcast struct {
	obj     *Object
	op      Op
	from    cluster.NodeID
	orderer cluster.NodeID
	seq     uint64
	size    int // op.ArgBytes + HeaderBytes, the wire size everywhere
	refs    int32
	done    *sim.Future
	fn      func() // bound once: runs distributeNow for this record
}

// getBcast pops (or creates) a broadcast record with its done future armed.
func (r *RTS) getBcast(futName string) *pendingBcast {
	b := r.bcastPool.Get()
	if b.fn == nil {
		b.done = sim.NewFuture(r.e, futName)
		b.fn = func() { r.distributeNow(b) }
	} else {
		b.done.Reset(futName)
	}
	return b
}

// releaseBcast drops one reference, recycling the record at zero. On a
// sharded engine the references drop on several LPs inside one window, so
// neither the counter nor a shared free list is touchable: the record is
// simply left to the garbage collector (Invoke allocates it fresh there).
func (r *RTS) releaseBcast(b *pendingBcast) {
	if r.sharded {
		return
	}
	if b.refs--; b.refs > 0 {
		return
	}
	b.obj = nil
	b.op = Op{} // drop the closure reference while pooled
	r.bcastPool.Put(b)
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

// OnApplied registers a callback observing every ordered update applied at
// any node. Replicated objects only.
func (o *Object) OnApplied(fn func(at cluster.NodeID, op Op, result any)) {
	if !o.replicated {
		o.misuse("OnApplied", "")
	}
	o.applied = fn
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Owner returns the owner node of a non-replicated object.
func (o *Object) Owner() cluster.NodeID {
	if o.replicated {
		o.misuse("Owner", "")
	}
	return o.owner
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
	var b *pendingBcast
	if r.sharded {
		// Fresh record per write: its fields are written on the writer's and
		// orderer's LPs and read on every delivering LP, each hop ordered by
		// a ≥lookahead message (see DESIGN.md §5d), but its references drop
		// concurrently across LPs — so no refcount, no free list, and the
		// done future lives on the writer's LP where the writer awaits it.
		nb := &pendingBcast{done: sim.NewFuture(sh.e, o.futName)}
		nb.fn = func() { r.distributeNow(nb) }
		b = nb
	} else {
		b = r.getBcast(o.futName)
		b.refs = int32(r.topo.Compute()) + 1
	}
	b.obj, b.op, b.from = o, op, from
	b.size = op.ArgBytes + HeaderBytes
	r.seqr.Submit(r, from, b)
	res := b.done.Await(p)
	r.releaseBcast(b) // the writer's own reference, after consuming res
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

// asyncDeliver is an unordered replicated update in flight (the asynchronous
// broadcast of Section 4.7's proposed ACP optimization). One record serves
// one cluster's delivery fan-out (refs = cluster size); the gateway relays
// the record itself, so no separate relay wrapper exists.
type asyncDeliver struct {
	obj  *Object
	op   Op
	refs int32
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
	size := op.ArgBytes + HeaderBytes
	// Local cluster: hardware multicast (includes the sender's own copy,
	// applied on delivery like any other member's).
	fc := r.topo.ClusterOf(from)
	local := sh.asyncPool.Get()
	local.obj, local.op = o, op
	local.refs = int32(r.topo.Size(fc))
	r.net.BcastLocal(from, netsim.KindBcast, size, local)
	// Remote clusters: one WAN message per cluster; the gateway re-broadcasts
	// the record into its cluster.
	for c := 0; c < r.topo.Clusters; c++ {
		if c == fc {
			continue
		}
		a := sh.asyncPool.Get()
		a.obj, a.op = o, op
		a.refs = int32(r.topo.Size(c))
		r.send(netsim.Msg{
			From: from, To: r.topo.Gateway(c), Kind: netsim.KindBcast,
			Size:    size,
			Payload: a,
		})
	}
	return nil
}
