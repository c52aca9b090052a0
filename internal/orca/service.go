package orca

import (
	"fmt"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// Request is an application-level request to a service. The sender builds
// it and it travels as the message payload, so it is the one record a
// request makes. The serving process must answer every Call request exactly
// once via Reply.
type Request struct {
	rts     *RTS
	call    uint32 // the caller's reply slot, or noReply for a Cast
	svc     TagID  // the service addressed
	From    cluster.NodeID
	To      cluster.NodeID
	Payload any
}

// noReply marks a cast request (Reply on it is a bug).
const noReply = ^uint32(0)

// NeedsReply reports whether the request came from a blocking Call (true)
// or a one-way Cast (false, and Reply must not be called).
func (q *Request) NeedsReply() bool { return q.call != noReply }

// Reply sends the response back to the requester, unblocking it when the
// reply message arrives. resBytes is the simulated payload size.
func (q *Request) Reply(resBytes int, result any) {
	if q.call == noReply {
		panic("orca: Reply to a Cast request")
	}
	q.rts.reply(q.To, q.From, q.call, resBytes, result)
}

// service is one service registered at a node: a mailbox that a server
// process consumes, or an event-context handler.
type service struct {
	mb *sim.Mailbox
	fn func(*Request)
}

// RegisterService creates (or returns) the request mailbox for the service
// with interned tag svc at a node. A server process consumes it with
// NextRequest.
func (r *RTS) RegisterService(at cluster.NodeID, svc TagID) *sim.Mailbox {
	s := r.nodes[at].services[svc]
	if s.mb == nil {
		s.mb = sim.NewMailbox(r.e, "service")
		r.setService(at, svc, s)
	}
	return s.mb
}

// HandleService registers an event-context handler for the service with
// interned tag svc at a node: fn runs at message arrival time and must not
// block, but it may send messages, schedule events and reply. Use this for
// protocol agents (like message combiners) that need no process of their own.
func (r *RTS) HandleService(at cluster.NodeID, svc TagID, fn func(*Request)) {
	s := r.nodes[at].services[svc]
	if s.fn != nil {
		panic(fmt.Sprintf("orca: service %v at node %d registered twice", r.tagOf(svc), at))
	}
	s.fn = fn
	r.setService(at, svc, s)
}

// setService records s as the service svc at node at, making the node's
// table on first use: most nodes of most runs serve nothing. A node serves
// a tag one way, by a handler or by a mailbox.
func (r *RTS) setService(at cluster.NodeID, svc TagID, s service) {
	if s.fn != nil && s.mb != nil {
		panic(fmt.Sprintf("orca: service %v at node %d has both a handler and a mailbox", r.tagOf(svc), at))
	}
	nd := r.nodes[at]
	if nd.services == nil {
		nd.services = make(map[TagID]service)
	}
	nd.services[svc] = s
}

// tagOf returns the Tag interned as id, for a misuse panic's message. It
// scans the interning table: no other path needs the reverse mapping.
func (r *RTS) tagOf(id TagID) (tag Tag) {
	r.tagMu.Lock()
	defer r.tagMu.Unlock()
	for t, i := range r.tagIDs {
		if i == id {
			tag = t
		}
	}
	return tag
}

// request sends q from one node to another as a message of the given kind.
func (r *RTS) request(q *Request, kind netsim.Kind, argBytes int) {
	r.nodes[q.From].sh.ops.Requests++
	r.send(netsim.Msg{
		From: q.From, To: q.To, Kind: kind,
		Size:    argBytes + HeaderBytes,
		Payload: q,
	})
}

// Cast sends a one-way, non-blocking request to the service with interned
// tag svc: the sender continues immediately and no reply is expected.
func (r *RTS) Cast(from, to cluster.NodeID, svc TagID, argBytes int, payload any) {
	r.request(&Request{rts: r, call: noReply, svc: svc, From: from, To: to, Payload: payload},
		netsim.KindData, argBytes)
}

// Call performs a blocking request to the service with interned tag svc at
// node to: the calling process is suspended until the server replies.
func (r *RTS) Call(p *sim.Proc, from, to cluster.NodeID, svc TagID, argBytes int, payload any) any {
	nd := r.nodes[from]
	f := nd.sh.getFuture("call")
	r.request(&Request{rts: r, call: nd.newCall(f), svc: svc, From: from, To: to, Payload: payload},
		netsim.KindRPCReq, argBytes)
	res := f.Await(p)
	nd.sh.futPool.Put(f)
	return res
}

// NextRequest blocks the serving process until a request arrives.
func NextRequest(p *sim.Proc, mb *sim.Mailbox) *Request {
	return mb.Get(p).(*Request)
}

// serve hands a delivered request to its service at node nd.
func (r *RTS) serve(nd *nodeRTS, q *Request) {
	s, ok := nd.services[q.svc]
	switch {
	case s.fn != nil:
		s.fn(q)
	case ok:
		s.mb.Put(q)
	default:
		panic(fmt.Sprintf("orca: no service %v at node %d", r.tagOf(q.svc), nd.id))
	}
}
