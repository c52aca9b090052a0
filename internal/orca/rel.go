package orca

import (
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// Reliability layer: sequenced, retransmitting channels over the lossy WAN.
//
// With a fault policy installed the network may drop, duplicate or reorder
// intercluster messages. EnableReliability interposes a per-directed-node-pair
// reliable channel on every intercluster protocol send: messages travel in
// sequence-numbered envelopes, the receiver suppresses duplicates and restores
// send order, and the sender keeps a bounded window on the wire — new
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
// Record pooling stays sound under retransmission because recycling happens
// only when a record is dispatched, and the channel dispatches each
// envelope's inner record at most once: a retransmitted copy whose original
// was delivered is dropped by sequence number before its (possibly recycled
// and reused) inner record is ever touched.
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
	// RTO is the initial retransmit timeout. Zero means 10ms of virtual
	// time (several WAN round trips on the paper's platform).
	RTO time.Duration
}

func (c RelConfig) withDefaults() RelConfig {
	if c.RTO <= 0 {
		c.RTO = 10 * time.Millisecond
	}
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

// relEnvelope is the wire wrapper of one reliable message. Envelopes are
// never pooled: a fault-duplicated copy may surface long after delivery, and
// it must still carry its original sequence number to be recognized and
// dropped.
type relEnvelope struct {
	from, to cluster.NodeID
	seq      uint64
	kind     netsim.Kind
	size     int // inner wire size, without the envelope header
	inner    any
}

// relAck is a cumulative acknowledgement: every envelope of channel
// (from, to) with seq < upTo has been received. Acks travel raw (not
// reliable themselves): a lost ack is recovered when the retransmitted
// envelope provokes a fresh one.
type relAck struct {
	from, to cluster.NodeID // the data direction being acknowledged
	upTo     uint64
}

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
	l := &relLayer{r: r, cfg: cfg.withDefaults()}
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

// relSender is the sending end of one directed channel. It lives in the
// sending cluster's shard: creation, ack handling and the retransmit timer
// all execute on that cluster's LP.
type relSender struct {
	l       *relLayer
	sh      *relShard // owning (sending cluster's) shard
	key     pairKey
	nextSeq uint64
	queue   sim.FIFO[*relEnvelope] // sent but unacknowledged, in sequence order

	rto      time.Duration // current backoff value
	deadline time.Duration // virtual instant the current wait expires
	pending  bool          // a timer event is scheduled
	attempts int           // retransmit rounds since the last ack progress
	timerFn  func()        // bound once to onTimer
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
	env := &relEnvelope{
		from: m.From, to: m.To,
		seq:  s.nextSeq,
		kind: m.Kind, size: m.Size,
		inner: m.Payload,
	}
	s.nextSeq++
	sh.stats.Wrapped++
	s.queue.Push(env)
	if s.queue.Len() <= relWindow {
		l.transmit(env)
	}
	if s.queue.Len() == 1 {
		s.arm()
	}
}

// transmit puts one envelope on the wire.
func (l *relLayer) transmit(env *relEnvelope) {
	l.r.net.Send(netsim.Msg{
		From: env.from, To: env.to, Kind: env.kind,
		Size:    env.size + relHeaderBytes,
		Payload: env,
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
		s.l.transmit(s.queue.At(i))
	}
	s.rto = min(2*s.rto, 32*s.l.cfg.RTO)
	s.arm()
}

// onAck handles a cumulative acknowledgement at the sending node (the
// sending cluster's LP, where the channel's shard lives).
func (l *relLayer) onAck(a *relAck) {
	sh := l.shardOf(a.from)
	sh.stats.Acks++
	s := sh.send[pairKey{a.from, a.to}]
	if s == nil {
		return // ack for a channel we never opened (cannot happen in practice)
	}
	drop := 0
	for s.queue.Len() > 0 && s.queue.Peek().seq < a.upTo {
		s.queue.Pop()
		drop++
	}
	if drop == 0 {
		return // stale duplicate ack, no progress
	}
	// Ack-clocked transmission: the ack slid the window forward by drop
	// positions, so the envelopes newly inside it go on the wire now (their
	// first transmission — everything at an index below relWindow has
	// already been sent).
	for i := max(relWindow-drop, 0); i < min(s.queue.Len(), relWindow); i++ {
		l.transmit(s.queue.At(i))
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
	sh  *relShard // owning (receiving cluster's) shard
	key pairKey
	win sim.Reorder[*relEnvelope] // Next() is the lowest seq not yet delivered
}

func (l *relLayer) receiver(sh *relShard, key pairKey) *relReceiver {
	rc := sh.recv[key]
	if rc == nil {
		rc = &relReceiver{l: l, sh: sh, key: key}
		sh.recv[key] = rc
	}
	return rc
}

// onEnvelope handles one arriving envelope at the receiving node.
func (l *relLayer) onEnvelope(env *relEnvelope) {
	rc := l.receiver(l.shardOf(env.to), pairKey{env.from, env.to})
	next := rc.win.Next()
	if !rc.win.Put(env.seq, env) {
		rc.sh.stats.DupDropped++
		if env.seq < next {
			// Duplicate (retransmit or fault duplication) of a delivered
			// envelope. Re-ack so the sender stops retransmitting even when
			// the original ack was lost.
			rc.sendAck()
		}
		return // else a duplicate of an already-held envelope
	}
	if env.seq > next {
		// Early arrival: held to restore send order. FIFO channels only
		// reach here under fault reordering or a retransmit racing a held
		// predecessor, so the window stays tiny.
		rc.sh.stats.OutOfOrder++
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
	a := &relAck{from: rc.key.from, to: rc.key.to, upTo: rc.win.Next()}
	rc.l.r.net.Send(netsim.Msg{
		From: rc.key.to, To: rc.key.from, Kind: netsim.KindControl,
		Size:    relAckBytes,
		Payload: a,
	})
}

// deliverInner dispatches a delivered envelope's wrapped message exactly as
// the network would have delivered the unwrapped original.
func (l *relLayer) deliverInner(env *relEnvelope) {
	r := l.r
	m := netsim.Msg{From: env.from, To: env.to, Kind: env.kind, Size: env.size, Payload: env.inner}
	if int(env.to) >= len(r.nodes) {
		// Gateways sit above the compute-node range; their traffic routes
		// through the relay dispatcher.
		r.gatewayDispatch(m)
		return
	}
	r.dispatchPayload(env.to, r.nodes[env.to], m)
}
