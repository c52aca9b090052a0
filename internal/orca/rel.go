package orca

import (
	"fmt"
	"math"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// Reliability layer: sequenced, retransmitting channels over the lossy WAN.
//
// With a fault policy installed the network may lose intercluster messages:
// a drop verdict, a crashed gateway, a hold queue that gives up.
// EnableReliability interposes a per-directed-node-pair
// reliable channel on every intercluster protocol send: messages travel in
// sequence-numbered envelopes, the receiver suppresses the duplicates that
// retransmission makes and restores the send order that losses break, and the sender keeps a bounded window on the wire — new
// envelopes transmit ack-clocked as cumulative acknowledgements slide the
// window, and a virtual-time timer with exponential backoff retransmits the
// window when acknowledgements stop.
//
// This one mechanism yields all the recovery guarantees the runtime needs:
//
//   - RPC timeout/retry: requests and replies are wrapped like everything
//     else, so a lost request or reply is retransmitted until acknowledged.
//   - At-most-once execution: the receiver's duplicate suppression is a
//     generalized reply cache — a retransmitted request whose original was
//     executed is recognized by sequence number and never re-dispatched, so
//     non-idempotent operations execute exactly once.
//   - Sequencer token-loss recovery: token and migration-request control
//     messages cross the WAN through the same channels, so a lost token is
//     detected by its sender's timer and retransmitted.
//
// Senders retry forever, the backoff capped at 32×RTO. A run that cannot
// recover ends at its deadline with a DeadlineError naming the parked
// processes.
//
// The channel adds a header word, not a record: an envelope is the wrapped
// message itself with its sequence number in netsim.Msg.Seq, and an ack is a
// control message carrying its cumulative number there. Every copy on the
// wire — an original, a retransmission, an early arrival behind a gap —
// holds its number by value, so the receiver drops a duplicate by that
// number before it reads the payload. That is what keeps record pooling sound under
// retransmission: a copy whose original was delivered may point at an inner
// record that has since been recycled and reused, and it is never
// dispatched.
//
// Intracluster traffic is never faulted and bypasses the layer entirely.
// With reliability off (the default), every send costs one extra nil check.

// relHeaderBytes is the wire overhead of a reliable envelope (sequence
// number), added to the wrapped message's size.
const relHeaderBytes = 8

// relAckBytes is the wire size of a cumulative acknowledgement.
const relAckBytes = 8 + HeaderBytes

// relWindow is the channel's transmission window: at most this many
// unacknowledged envelopes are ever on the wire. Later envelopes wait in the
// queue and are transmitted ack-clocked, as acknowledgements slide the
// window. The window is what makes recovery stable: a sender that dumped its
// whole backlog on every timeout would flood the WAN pipe faster than it
// drains, delivery latency would diverge, and no acknowledgement would ever
// return in time to stop the retransmissions (congestion collapse — observed
// with RA's fire-hose of asynchronous batches after a gateway outage). With
// the window, a channel's worst-case timeout load is window × envelope size
// per backed-off RTO, safely under the paper's WAN bandwidth, while healthy
// channels transmit at wire speed paced by their own acks.
const relWindow = 16

// RelConfig parameterizes the reliability layer.
type RelConfig struct {
	// RTO is the initial retransmit timeout. Zero sizes it to the platform
	// (withDefaults): max(10ms, 4× the worst routed pure-latency path).
	RTO time.Duration
}

// withDefaults sizes a zero RTO to net's platform. 10ms is several WAN round
// trips on the DAS mesh, but a multi-hop backbone's round trip can exceed it
// many times over: every envelope would then time out before its ack
// returned, and a run would measure a spurious retransmission storm instead
// of fault recovery. So the RTO is also at least twice the worst routed round
// trip over the network's graph (pure link latency along Graph.Next;
// serialization and queueing ride on the doubling).
func (c RelConfig) withDefaults(net *netsim.Network) RelConfig {
	if c.RTO > 0 {
		return c
	}
	g, nclusters := net.Graph(), net.Topology().Clusters
	classOf := make(map[[2]int]int, 2*len(g.Links))
	for _, l := range g.Links {
		classOf[[2]int{l.A, l.B}] = l.Class
		classOf[[2]int{l.B, l.A}] = l.Class
	}
	var worst time.Duration
	for u := 0; u < nclusters; u++ {
		for d := 0; d < nclusters; d++ {
			var path time.Duration
			for cur := u; cur != d; {
				next := g.Next(cur, d)
				path += g.Classes[classOf[[2]int{cur, next}]].Latency
				cur = next
			}
			worst = max(worst, path)
		}
	}
	c.RTO = max(10*time.Millisecond, 4*worst)
	return c
}

// RelStats tallies the reliability layer's work over a run.
type RelStats struct {
	Wrapped     uint64 // intercluster messages sent through reliable channels
	Retransmits uint64 // envelopes retransmitted by timers
	DupDropped  uint64 // received envelopes suppressed as duplicates
	OutOfOrder  uint64 // received envelopes buffered to restore send order
	Acks        uint64 // acknowledgements received
}

// add folds another engine's tallies into s.
func (s *RelStats) add(o *RelStats) {
	s.Wrapped += o.Wrapped
	s.Retransmits += o.Retransmits
	s.DupDropped += o.DupDropped
	s.OutOfOrder += o.OutOfOrder
	s.Acks += o.Acks
}

// pairKey identifies one directed reliable channel.
type pairKey struct {
	from, to cluster.NodeID
}

// relAckMark is the payload of every acknowledgement; the cumulative number
// (every envelope of the acknowledged channel numbered below it has been
// received) travels in Msg.Seq. Acks travel raw (not reliable themselves): a
// lost ack is recovered when the retransmitted envelope provokes a fresh one.
type relAckMark struct{}

var relAck any = relAckMark{}

// relShard is one engine's instance of the reliability layer's mutable
// state (DESIGN.md §5c): the engine plus the channel maps and tallies its
// events touch. Channel state is partitioned by the endpoint that owns it —
// a sender (keyed from→to) lives in from's cluster's shard because
// sendReliable, onAck and the retransmit timer all execute on from's LP; a
// receiver lives in to's cluster's shard because envelopes are delivered on
// to's LP.
type relShard struct {
	e     *sim.Engine
	stats RelStats
	send  map[pairKey]*relSender
	recv  map[pairKey]*relReceiver
}

// relLayer is the runtime's reliability state: one sender per outgoing and
// one receiver per incoming directed channel, created on first use in the
// owning endpoint's shard.
type relLayer struct {
	r        *RTS
	cfg      RelConfig
	sh, each []*relShard // netsim.PerEngine: by cluster, and the distinct instances
}

// shardOf returns the shard owning node id's channel state.
func (l *relLayer) shardOf(id cluster.NodeID) *relShard {
	return l.sh[l.r.net.ClusterOf(id)]
}

// EnableReliability interposes reliable channels on all intercluster
// protocol traffic. Call it once, before the run starts: channels number
// messages from the first send, so enabling mid-run would present unknown
// sequence numbers to the receivers.
func (r *RTS) EnableReliability(cfg RelConfig) {
	if r.rel != nil {
		panic("orca: EnableReliability called twice")
	}
	if r.e.Now() != 0 {
		panic("orca: EnableReliability after the run started")
	}
	l := &relLayer{r: r, cfg: cfg.withDefaults(r.net)}
	l.sh, l.each = netsim.PerEngine(r.net, func(c int) *relShard {
		return &relShard{
			e:    r.net.EngineFor(c),
			send: make(map[pairKey]*relSender),
			recv: make(map[pairKey]*relReceiver),
		}
	})
	r.rel = l
}

// RelStats returns the reliability tallies so far (zero value when
// reliability is disabled), summed over the engines' instances — integer
// sums are order-independent, so the fold is deterministic; call it only
// while the simulation is stopped.
func (r *RTS) RelStats() RelStats {
	var tot RelStats
	if r.rel != nil {
		for _, sh := range r.rel.each {
			tot.add(&sh.stats)
		}
	}
	return tot
}

// send routes one protocol message: intercluster sends go through the
// reliability layer when it is enabled, everything else straight to the
// network.
func (r *RTS) send(m netsim.Msg) {
	if r.rel != nil && r.net.ClusterOf(m.From) != r.net.ClusterOf(m.To) {
		r.rel.sendReliable(m)
		return
	}
	r.net.Send(m)
}

// intercepted hands a delivered intercluster message to the reliability
// layer when it is enabled — every such message is an envelope or an ack —
// and reports whether it did. The nodes' network handlers call it before
// their payload switch; the layer calls the switch directly with what it
// delivers, so an unwrapped message is never intercepted twice.
func (r *RTS) intercepted(m netsim.Msg) bool {
	return r.rel != nil && r.rel.intercept(m)
}

func (l *relLayer) intercept(m netsim.Msg) bool {
	if l.r.net.ClusterOf(m.From) == l.r.net.ClusterOf(m.To) {
		return false
	}
	l.receive(m)
	return true
}

// relSender is the sending end of one directed channel. It lives in the
// sending cluster's shard: creation, ack handling and the retransmit timer
// all execute on that cluster's LP.
type relSender struct {
	l   *relLayer
	sh  *relShard // owning (sending cluster's) shard
	key pairKey
	// queue holds the unacknowledged envelopes in sequence order, by value:
	// the first relWindow are on the wire, the rest wait. The head is
	// numbered nextSeq − queue.Len().
	queue   sim.FIFO[relSlot]
	nextSeq uint32

	rto      time.Duration // current backoff value
	deadline time.Duration // virtual instant the current wait expires
	pending  bool          // a timer event is scheduled
	attempts int           // retransmit rounds since the last ack progress
	timerFn  func()        // bound once to onTimer
}

// relSlot is one unacknowledged envelope: what transmit needs to rebuild it.
type relSlot struct {
	payload any
	size    int // inner wire size, without the envelope header
	kind    netsim.Kind
	tag     uint16 // the inner message's Msg.Tag word
}

func (l *relLayer) sender(sh *relShard, key pairKey) *relSender {
	s := sh.send[key]
	if s == nil {
		s = &relSender{l: l, sh: sh, key: key, rto: l.cfg.RTO}
		s.timerFn = s.onTimer
		sh.send[key] = s
	}
	return s
}

func (l *relLayer) sendReliable(m netsim.Msg) {
	sh := l.shardOf(m.From)
	s := l.sender(sh, pairKey{m.From, m.To})
	if s.nextSeq == math.MaxUint32 {
		panic(fmt.Sprintf("orca: reliable channel %d>%d ran out of 32-bit sequence numbers", m.From, m.To))
	}
	s.nextSeq++
	sh.stats.Wrapped++
	s.queue.Push(relSlot{payload: m.Payload, size: m.Size, kind: m.Kind, tag: m.Tag})
	if n := s.queue.Len(); n <= relWindow {
		s.transmit(n - 1)
	}
	if s.queue.Len() == 1 {
		s.arm()
	}
}

// transmit puts the queue's i-th oldest envelope on the wire.
func (s *relSender) transmit(i int) {
	e := s.queue.At(i)
	s.l.r.net.Send(netsim.Msg{
		From: s.key.from, To: s.key.to, Kind: e.kind, Tag: e.tag,
		Seq:     s.nextSeq - uint32(s.queue.Len()-i),
		Size:    e.size + relHeaderBytes,
		Payload: e.payload,
	})
}

// arm starts (or extends) the retransmit wait. At most one timer event is
// outstanding per sender; a timer firing before the current deadline
// reschedules itself lazily.
func (s *relSender) arm() {
	now := s.sh.e.Now()
	s.deadline = now + s.rto
	if !s.pending {
		s.pending = true
		s.sh.e.At(s.deadline, s.timerFn)
	}
}

func (s *relSender) onTimer() {
	s.pending = false
	if s.queue.Len() == 0 {
		// Nothing outstanding: do not rearm, so an idle channel's timer
		// lapses and inflates the run's virtual end time by at most one
		// backoff interval past the last traffic.
		return
	}
	now := s.sh.e.Now()
	if now < s.deadline {
		// Ack progress pushed the deadline out while this event was in
		// flight; sleep again until the real deadline.
		s.pending = true
		s.sh.e.At(s.deadline, s.timerFn)
		return
	}
	// Timeout. The first one after progress usually means one lost
	// envelope: the receiver holds everything behind the gap, so resending
	// the head alone restores the whole window (the cumulative ack jumps).
	// A repeat timeout means the damage is wider — an outage swallowed the
	// window — so resend all of it.
	s.attempts++
	n := 1
	if s.attempts > 1 {
		n = min(s.queue.Len(), relWindow)
	}
	for i := 0; i < n; i++ {
		s.sh.stats.Retransmits++
		s.transmit(i)
	}
	s.rto = min(2*s.rto, 32*s.l.cfg.RTO)
	s.arm()
}

// onAck handles a cumulative acknowledgement at the sending node (the
// sending cluster's LP, where the channel's shard lives); m travels from the
// data receiver back to the data sender.
func (l *relLayer) onAck(sh *relShard, m netsim.Msg) {
	sh.stats.Acks++
	s := sh.send[pairKey{m.To, m.From}]
	if s == nil {
		panic(fmt.Sprintf("orca: ack %v for channel %d->%d, which never sent", m, m.To, m.From))
	}
	// The receiver acks only numbers it has received, so upTo ≤ nextSeq, and the
	// acknowledged part of the queue is its first upTo − head slots.
	head := s.nextSeq - uint32(s.queue.Len())
	if m.Seq <= head {
		return // stale duplicate ack, no progress
	}
	drop := int(m.Seq - head)
	for i := 0; i < drop; i++ {
		s.queue.Pop()
	}
	// Ack-clocked transmission: the ack slid the window forward by drop
	// positions, so the envelopes newly inside it go on the wire now (their
	// first transmission — everything at an index below relWindow has
	// already been sent).
	for i := max(relWindow-drop, 0); i < min(s.queue.Len(), relWindow); i++ {
		s.transmit(i)
	}
	// Progress halves the backoff rather than resetting it: under heavy
	// load the gap between progress acks is queueing delay, not loss, and
	// an RTO snapped back to its floor would fire spuriously every
	// interval, resending a window the receiver already has. Halving lets
	// the timeout float near the observed ack gap and decay to the floor
	// only as the congestion does.
	if s.rto /= 2; s.rto < l.cfg.RTO {
		s.rto = l.cfg.RTO
	}
	s.attempts = 0
	if s.queue.Len() > 0 {
		s.arm()
	}
}

// relReceiver is the receiving end of one directed channel. It lives in the
// receiving cluster's shard: envelopes are delivered on that cluster's LP.
type relReceiver struct {
	l   *relLayer
	key pairKey
	win sim.Reorder[netsim.Msg] // Next() is the lowest seq not yet delivered
}

func (l *relLayer) receiver(sh *relShard, key pairKey) *relReceiver {
	rc := sh.recv[key]
	if rc == nil {
		rc = &relReceiver{l: l, key: key}
		sh.recv[key] = rc
	}
	return rc
}

// receive handles one intercluster message at its destination node, on the
// destination cluster's LP: an ack for a channel sending from here, or an
// envelope of a channel receiving here.
func (l *relLayer) receive(m netsim.Msg) {
	sh := l.shardOf(m.To)
	if m.Payload == relAck {
		l.onAck(sh, m)
		return
	}
	rc := l.receiver(sh, pairKey{m.From, m.To})
	seq, next := uint64(m.Seq), rc.win.Next()
	if seq < next {
		// Retransmitted duplicate of a delivered envelope, dropped before
		// its payload — possibly a recycled record — is read. Re-ack so the sender stops retransmitting even
		// when the original ack was lost.
		sh.stats.DupDropped++
		rc.sendAck()
		return
	}
	if !rc.win.Put(seq, m) {
		sh.stats.DupDropped++
		return // a duplicate of an already-held envelope
	}
	if seq > next {
		// Early arrival: held to restore send order. FIFO channels only
		// reach here behind a lost predecessor (a gap its retransmission
		// fills), so the window stays tiny.
		sh.stats.OutOfOrder++
		rc.sendAck()
		return
	}
	// In order: deliver it and any held successors.
	for {
		h, ok := rc.win.Take()
		if !ok {
			break
		}
		l.deliverInner(h)
	}
	rc.sendAck()
}

// sendAck reports cumulative progress back to the sender, raw (unreliable):
// a lost ack is recovered by the retransmit → re-ack cycle.
func (rc *relReceiver) sendAck() {
	rc.l.r.net.Send(netsim.Msg{
		From: rc.key.to, To: rc.key.from, Kind: netsim.KindControl,
		Seq:     uint32(rc.win.Next()),
		Size:    relAckBytes,
		Payload: relAck,
	})
}

// deliverInner dispatches a delivered envelope's wrapped message exactly as
// the network would have delivered the unwrapped original.
func (l *relLayer) deliverInner(m netsim.Msg) {
	r := l.r
	m.Seq, m.Size = 0, m.Size-relHeaderBytes
	if int(m.To) >= len(r.nodes) {
		// Gateways sit above the compute-node range; their traffic routes
		// through the relay dispatcher.
		r.gatewayDispatch(m)
		return
	}
	r.dispatchPayload(m.To, r.nodes[m.To], m)
}
