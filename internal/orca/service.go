package orca

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// Request is an application-level request delivered to a registered service.
// The serving process must answer every request exactly once via Reply.
type Request struct {
	rts     *RTS
	ID      uint64
	From    cluster.NodeID
	To      cluster.NodeID
	Payload any
}

// NeedsReply reports whether the request came from a blocking Call (true)
// or a one-way Cast (false, and Reply must not be called).
func (q *Request) NeedsReply() bool { return q.ID != noReply }

// Reply sends the response back to the requester, unblocking it when the
// reply message arrives. resBytes is the simulated payload size.
func (q *Request) Reply(resBytes int, result any) {
	if q.ID == noReply {
		panic("orca: Reply to a Cast request")
	}
	r := q.rts
	rep := r.nodes[q.To].sh.repPool.Get() // executing at the serving node's LP
	rep.callID, rep.result = q.ID, result
	r.send(netsim.Msg{
		From: q.To, To: q.From, Kind: netsim.KindRPCRep,
		Size:    resBytes + HeaderBytes,
		Payload: rep,
	})
}

// RegisterService creates (or returns) the request mailbox for a named
// service at a node. A server process consumes it with NextRequest.
func (r *RTS) RegisterService(at cluster.NodeID, name string) *sim.Mailbox {
	nd := r.nodes[at]
	if _, taken := nd.handlers[name]; taken {
		panic(fmt.Sprintf("orca: service %q at node %d already has a handler", name, at))
	}
	mb, ok := nd.services[name]
	if !ok {
		mb = sim.NewMailbox(r.e, fmt.Sprintf("service %s@%d", name, at))
		nd.services[name] = mb
	}
	return mb
}

// HandleService registers an event-context handler for a named service at a
// node: fn runs at message arrival time and must not block, but it may send
// messages, schedule events and reply. Use this for protocol agents (like
// message combiners) that need no process of their own.
func (r *RTS) HandleService(at cluster.NodeID, name string, fn func(*Request)) {
	nd := r.nodes[at]
	if _, taken := nd.services[name]; taken {
		panic(fmt.Sprintf("orca: service %q at node %d already has a mailbox", name, at))
	}
	if _, taken := nd.handlers[name]; taken {
		panic(fmt.Sprintf("orca: service %q at node %d registered twice", name, at))
	}
	nd.handlers[name] = fn
}

// Cast sends a one-way, non-blocking request to a service: the sender
// continues immediately and no reply is expected.
func (r *RTS) Cast(from, to cluster.NodeID, name string, argBytes int, payload any) {
	sh := r.nodes[from].sh
	sh.ops.Requests++
	q := sh.svcPool.Get()
	q.callID, q.from, q.service, q.payload = noReply, from, name, payload
	r.send(netsim.Msg{
		From: from, To: to, Kind: netsim.KindData,
		Size:    argBytes + HeaderBytes,
		Payload: q,
	})
}

// noReply marks a cast request (Reply on it is a bug).
const noReply = ^uint64(0)

// NextRequest blocks the serving process until a request arrives.
func NextRequest(p *sim.Proc, mb *sim.Mailbox) *Request {
	return mb.Get(p).(*Request)
}

// callFutName returns the cached future name for blocking calls to a
// service, building it on first use. The cache is per shard so concurrent
// first calls on different LPs never share a map.
func (sh *rtsShard) callFutName(name string) string {
	s, ok := sh.callNames[name]
	if !ok {
		s = "call " + name
		sh.callNames[name] = s
	}
	return s
}

// Call performs a blocking application-level request to service name at node
// to: the calling process is suspended until the server replies.
func (r *RTS) Call(p *sim.Proc, from, to cluster.NodeID, name string, argBytes int, payload any) any {
	nd := r.nodes[from]
	sh := nd.sh
	sh.ops.Requests++
	f := sh.getFuture(sh.callFutName(name))
	id := nd.newCall(f)
	q := sh.svcPool.Get()
	q.callID, q.from, q.service, q.payload = id, from, name, payload
	r.send(netsim.Msg{
		From: from, To: to, Kind: netsim.KindRPCReq,
		Size:    argBytes + HeaderBytes,
		Payload: q,
	})
	res := f.Await(p)
	sh.futPool.Put(f)
	return res
}
