package orca

import (
	"fmt"
	"math"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// Tag names a point-to-point message stream between application processes,
// like a (communicator, tag) pair in message-passing systems. A and B are
// free application fields (e.g. phase number, sender rank).
type Tag struct {
	Op   string
	A, B int
}

// TagID is the dense interned identifier of a Tag. Applications intern each
// tag once (InternTag) and every send, receive and service request takes
// the ID: per-node data mailbox lookup is a slice index, with no name
// formatting per message.
type TagID int32

// maxTags is how many tags a runtime can intern: a data message carries its
// TagID plus one in the 16-bit netsim.Msg.Tag word, where 0 means "no tag".
const maxTags = math.MaxUint16

// InternTag returns the dense ID for tag, assigning the next one on first
// use; it panics rather than assign more than maxTags. The ID is valid for
// the lifetime of the runtime. The table is the only runtime map shared
// across clusters, so interning takes a lock; on a sharded engine apps
// should intern at setup anyway, both to keep TagID assignment deterministic
// and to keep the lock off the steady-state path.
func (r *RTS) InternTag(t Tag) TagID {
	r.tagMu.Lock()
	defer r.tagMu.Unlock()
	id, ok := r.tagIDs[t]
	if !ok {
		if len(r.tagIDs) == maxTags {
			panic(fmt.Sprintf("orca: tag %v past the %d a runtime can intern", t, maxTags))
		}
		id = TagID(len(r.tagIDs))
		r.tagIDs[t] = id
	}
	return id
}

// dataMailbox returns (creating on demand) the queue for an interned tag at
// a node. Every data mailbox is named "data".
func (r *RTS) dataMailbox(nd *nodeRTS, id TagID) *sim.Mailbox {
	if int(id) >= len(nd.data) {
		nd.data = append(nd.data, make([]*sim.Mailbox, int(id)+1-len(nd.data))...)
	}
	mb := nd.data[id]
	if mb == nil {
		mb = sim.NewMailbox(nd.sh.e, "data")
		nd.data[id] = mb
	}
	return mb
}

// SendDataID transmits an asynchronous message with an interned tag, of the
// given simulated size, from one node to another. The sender does not block
// (the paper's low-level Orca RTS send primitive, used by the C
// re-implementations of SOR and by RA's message combining).
func (r *RTS) SendDataID(from, to cluster.NodeID, id TagID, size int, payload any) {
	sh := r.nodes[from].sh
	sh.ops.DataMsgs++
	sh.ops.DataBytes += int64(size)
	r.send(netsim.Msg{
		From: from, To: to, Kind: netsim.KindData, Tag: uint16(id + 1),
		Size:    size + HeaderBytes,
		Payload: payload,
	})
}

// RecvDataID blocks process p (running at node at) until a message with the
// interned tag arrives, and returns its payload.
func (r *RTS) RecvDataID(p *sim.Proc, at cluster.NodeID, id TagID) any {
	return r.dataMailbox(r.nodes[at], id).Get(p)
}

// PollDataID blocks process p (running at node at) until the earliest instant
// first + k·period (k ≥ 0) at which a message with the interned tag is queued,
// and leaves it queued for the next (Try)RecvDataID: sim.Mailbox.Poll on the
// tag's mailbox, with its single-consumer rule.
func (r *RTS) PollDataID(p *sim.Proc, at cluster.NodeID, id TagID, first, period time.Duration) {
	r.dataMailbox(r.nodes[at], id).Poll(p, first, period)
}

// TryRecvDataID returns the oldest queued payload for the interned tag
// without blocking; ok is false if none is queued.
func (r *RTS) TryRecvDataID(at cluster.NodeID, id TagID) (payload any, ok bool) {
	return r.dataMailbox(r.nodes[at], id).TryGet()
}
