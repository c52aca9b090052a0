// The wide-area path: one pipeline of wire units, gateway to gateway.
//
// Everything that crosses a WAN link is a wireUnit — a pooled record holding
// one or more application messages, a route position and a byte count. With
// the gateway transport layer off, every intercluster message is its own
// unit: one message, stream 0, no sequence number. A unit leaves its source
// gateway through the fault verdict (admit), is routed or held (transmit),
// pays the gateway forwarding slot and the FIFO pipe of the next link
// (transmitOn), re-enters forward at every intermediate gateway of a
// multi-hop route, and at the destination gateway is unpacked onto Fast
// Ethernet (arrive, unpack). A unit lost on the way goes through lose.
//
// A unit crossing a pipe waits in the pipe's lane as a hop: the record plus
// the destination cluster and byte count. The lane fires land at the pipe's
// far gateway, which without a fault policy forwards an intermediate hop
// from those fields alone, never loading the record. The stages take the
// unit's position as a parameter: land from the pipe, forward, lose and the
// hold queues from their caller. Every other entry is the unit's one event
// closure, step, which picks the stage from where the unit stands, so the
// record's cur is read by step alone and written by both paths that schedule
// it: sendWAN and the lane's spill. While a unit waits in a lane, its cur is
// stale.
//
// The transport layer (MPWide-style frame coalescing and multipath striping)
// changes only how units are built and consumed. When enabled (any of
// cluster.Params.MaxFrameBytes, CoalesceWindow or WANStreams > 1 is set, and
// the topology has more than one cluster), each directed cluster pair keeps
// an egress queue at the local gateway: messages bound for the same
// destination cluster accumulate into one unit — a frame — which is sealed
// when its payload reaches MaxFrameBytes or when a CoalesceWindow
// virtual-time timer (armed when the first message arrives) fires. The frame
// pays one WAN serialization and one receive-side software overhead, however
// many messages it carries — the transparent runtime-level counterpart of the
// paper's application-level message combining. Frames are striped round-robin
// over WANStreams parallel pipes per directed pair (each with the full
// WANLatency/WANBandwidth) and carry a sequence number; the remote gateway's
// ingress queue reassembles them in order, holding early frames until the gap
// fills. egressQ and the ingress sim.Reorder are the only framed-specific
// state: an unsequenced unit skips both.
package netsim

import (
	"fmt"
	"time"

	"albatross/internal/sim"
)

// noSeq is the sequence number of a unit that is not part of a reassembled
// stream: an unframed message.
const noSeq = -1

// wireUnit is the recyclable WAN transmission record. Its event closure is
// bound once when the record is created and records are pooled per netShard,
// so steady intercluster traffic — framed or not — schedules its gateway hops
// without allocating. A frame's format is the concatenation of its messages'
// payloads: header cost is modelled by the per-unit software overhead, not
// extra bytes. Cluster indices are int32 and the stream an int16, so the
// record fits the 128-byte size class.
type wireUnit struct {
	n      *Network
	cs, cd int32
	cur    int32 // the cluster step runs at (stale while in a lane)
	stream int16 // striping stream, reduced modulo each link's pipe count
	seq    int64 // reassembly sequence number; noSeq when unsequenced
	bytes  int   // summed message sizes: what the wire serializes
	msgs   []Msg // starts out backed by one, so a single message never allocates
	one    [1]Msg
	fn     func() // bound to (*wireUnit).step once
}

// hop is a unit waiting in a pipe's lane: the record and the two fields an
// intermediate gateway's forwarding reads. bytes is exact for an unframed
// unit (Send bounds a message's size to 32 bits); a frame's summed size is
// read from its record, as its stream and message count are.
type hop struct {
	u     *wireUnit
	cd    int32
	bytes int32
}

// hop returns the unit's lane item.
func (u *wireUnit) hop() hop { return hop{u, u.cd, int32(u.bytes)} }

// getUnit pops a pooled record from sh (or creates one with its event
// closure bound). Records are released on whichever cluster's shard consumes
// them, so they migrate between pools, but each pool is touched by a single
// LP thread. State is cleared at release: a pooled record is ready as-is.
func (n *Network) getUnit(sh *netShard) *wireUnit {
	u := sh.wirePool.Get()
	if u.fn == nil {
		u.n, u.seq = n, noSeq
		u.msgs = u.one[:0]
		u.fn = u.step
	}
	return u
}

// step is the unit's event closure — the entry of sendWAN's first leg and of
// a hop spilled from a lane — on the LP of cluster cur;
// which stage runs follows from where the unit stands.
func (u *wireUnit) step() {
	switch {
	case u.cur == u.cd:
		u.arrive()
	case u.seq == noSeq && u.n.xp != nil:
		u.enqueue() // transport layer on: a lone message is on its way into a frame
	default:
		u.n.forward(int(u.cur), u.hop())
	}
}

// release returns the unit to sh's pool — the shard of the LP executing the
// release. Message slots are zeroed so pooled records hold no payload
// references.
func (u *wireUnit) release(sh *netShard) {
	clear(u.msgs)
	u.msgs = u.msgs[:0]
	u.seq, u.stream, u.bytes = noSeq, 0, 0
	sh.wirePool.Put(u)
}

// faultMsg is the message fault policies rule on: the application message
// itself for an unsequenced unit, and for a frame a synthetic
// gateway-to-gateway KindFrame message of the summed size — the frame is the
// wire unit, so faults rule on whole frames.
func (u *wireUnit) faultMsg() Msg {
	if u.seq == noSeq {
		return u.msgs[0]
	}
	return Msg{
		From: u.n.gateways[u.cs],
		To:   u.n.gateways[u.cd],
		Kind: KindFrame,
		Size: u.bytes,
	}
}

// admit applies the fault policy where a unit enters the WAN, at its source
// gateway. It reports false when the unit was consumed (crashed gateway or
// drop verdict) and has been released.
func (n *Network) admit(sh *netShard, now time.Duration, u *wireUnit) bool {
	wire := u.faultMsg()
	if n.fault.GatewayDown(now, int(u.cs), wire) || n.fault.WANTransit(now, int(u.cs), int(u.cd), wire) {
		u.release(sh)
		return false
	}
	return true
}

// forward is cluster cur's gateway forwarding stage, on its LP. An unframed
// unit enters here at its source gateway (frames enter the wire from
// egressQ.flush); on a multi-hop route every unit re-enters here at each
// intermediate gateway, store-and-forward. Only the fault checks read the
// record.
func (n *Network) forward(cur int, h hop) {
	sh := n.sh[cur]
	now := sh.e.Now()
	if n.fault != nil {
		u := h.u
		if cur == int(u.cs) && u.seq == noSeq {
			// An unframed unit at its source gateway is entering the WAN.
			// (So is one that a reversed reroute carries back through it:
			// chaos-run results depend on its being ruled on again. A frame
			// was admitted in flush and is never ruled on twice — a second
			// drop would lose its sequence number without a tombstone.)
			if !n.admit(sh, now, u) {
				return
			}
		} else if n.fault.GatewayDown(now, cur, u.faultMsg()) {
			// Intermediate gateways consult only gateway liveness: the drop
			// verdict applies once, where the unit enters the WAN.
			n.lose(sh, now, cur, u)
			return
		}
	}
	n.transmit(sh, cur, h, now)
}

// land is a hop's arrival at cluster to's gateway, on to's LP: the
// destination's arrive stage, or the forwarding stage of an intermediate
// gateway.
func (n *Network) land(to int, h hop) {
	if to == int(h.cd) {
		h.u.arrive()
		return
	}
	n.forward(to, h)
}

// transmit sends the unit at cluster cur's gateway over the first link of its
// route, read from the cluster's route row, or parks it in a hold queue
// (routefault.go). A non-empty queue toward the same destination means
// earlier traffic is still parked, so the unit queues behind it even if the
// route just healed (FIFO per channel is the ordering contract the upper
// layers rely on); the healed queue drains wholesale at its next retry tick.
func (n *Network) transmit(sh *netShard, cur int, h hop, now time.Duration) {
	cd := int(h.cd)
	if q := n.parkedAt(cur, cd); q != nil {
		q.push(now, h.u)
	} else if l := n.routeNext(sh, now, cur, cd); l != nil {
		n.transmitOn(sh, cur, h, now, l)
	} else {
		n.holdFor(cur, cd).push(now, h.u) // (or dropped on overflow)
	}
}

// gatewaySlot reserves cluster c's gateway protocol stack, which forwards
// one wire unit at a time, and returns the instant the slot ends. A frame
// takes one slot however many messages it packs: coalescing relieves the
// gateways along with the WAN link.
func (n *Network) gatewaySlot(c int, now time.Duration) time.Duration {
	if n.par.GatewayCost <= 0 {
		return now
	}
	gw := &n.nodes[n.gateways[c]]
	if gw.gwFree < now {
		gw.gwFree = now
	}
	gw.gwFree += n.par.GatewayCost
	return gw.gwFree
}

// transmitOn runs cluster cur's gateway forwarding slot and puts the unit on
// link l (the caller's routing choice), then queues the hop in the pipe's
// lane toward the next gateway. Stats' frame counters are charged once, at
// the source hop; the pipe's meter and its cluster's P² estimator for the
// link class record every hop (wire-level accounting). With the transport
// layer on every transmitted unit is a frame.
func (n *Network) transmitOn(sh *netShard, cur int, h hop, now time.Duration, l *adjLink) {
	now = n.gatewaySlot(cur, now)
	// Unsequenced units carry stream 0, so plain messages never stripe:
	// orca's ordering and ARQ layers rely on FIFO per directed channel, which
	// only reassembly by sequence number can restore across streams.
	p, bytes, msgs := &l.pipes[0], int(h.bytes), 1
	framed := n.xp != nil
	if framed {
		u := h.u
		p, bytes, msgs = &l.pipes[int(u.stream)%len(l.pipes)], u.bytes, len(u.msgs)
	}
	wait := max(p.free-now, 0)
	if p.msgs == 0 || wait < p.minWait {
		p.minWait = wait
	}
	p.maxWait = max(p.maxWait, wait)
	p.sumWait += wait
	start := now + wait
	// Sample WAN quality at the instant transmission actually begins: a unit
	// queued behind earlier traffic departs at p.free, and a time-varying
	// profile (congestion wave) must apply there, not at the instant the
	// unit joined the queue.
	lat, xmit := n.wanQuality(start, &n.classes[l.class], bytes)
	depart := start + xmit
	p.free = depart
	p.busy += xmit
	p.bytes += int64(bytes)
	p.msgs += int64(msgs)
	if framed {
		p.frames++
		if cur == int(h.u.cs) {
			sh.stats.frames.Msgs++
			sh.stats.frames.Bytes += int64(bytes)
			sh.stats.framedMsgs += int64(msgs)
		}
	}
	n.p99For(cur, int(l.class)).observe(0.99, float64(wait))
	// The cross-LP hop: arrival is depart+lat+wanDelay with depart >= now and
	// lat at least the link's class latency (a sharded WANProfile may only
	// stretch it — latency scales below 1 are rejected per sample),
	// so the delta is always >= the lookahead New configures — coalescing
	// delays when a frame departs, never how far ahead its arrival is
	// scheduled. The pipe's lane spills to AtShard on a sharded engine; on a
	// plain one it keeps the clamped arrivals out of the event queue until
	// each is the pipe's next.
	// FIFO clamp: a latency drop between two transmissions must not let this
	// unit overtake earlier traffic on the same pipe.
	at := max(depart+lat+n.wanDelay, p.arrive)
	p.arrive = at
	next := int(l.to)
	if p.lane == nil {
		p.lane = sim.NewLane(sh.e, n.sh[next].e,
			func(h hop) { n.land(next, h) },
			func(h hop) func() { h.u.cur = int32(next); return h.u.fn })
	}
	p.lane.At(at, h)
}

// arrive runs on the destination cluster's LP when a unit has crossed its
// last WAN link. An unsequenced unit unpacks at once. Sequenced units are
// consumed strictly in order: the next expected frame is unpacked immediately
// (plus any consecutive frames held behind it) and an early frame is held.
func (u *wireUnit) arrive() {
	n := u.n
	sh := n.sh[u.cd]
	now := sh.e.Now()
	if n.fault != nil && n.fault.GatewayDown(now, int(u.cd), u.faultMsg()) {
		// The remote gateway is crashed: the unit crossed the WAN but is lost
		// at the receiving side.
		n.lose(sh, now, int(u.cd), u)
		return
	}
	if u.seq == noSeq {
		u.unpack(now)
		u.release(sh)
		return
	}
	n.fileFrame(int(u.cs), int(u.cd), u.seq, u, now)
}

// unpack forwards the unit's messages onward from the destination gateway:
// a message addressed to the gateway itself is consumed on the spot; the rest
// share one forwarding slot — charged once the unit has something to forward
// — then serialize one by one onto Fast Ethernet toward their nodes.
func (u *wireUnit) unpack(now time.Duration) {
	n := u.n
	cd := int(u.cd)
	gw := &n.nodes[n.gateways[cd]]
	slotted := false
	for _, m := range u.msgs {
		if n.isGW[m.To] {
			n.deliver(m)
			continue
		}
		if !slotted {
			now = n.gatewaySlot(cd, now)
			slotted = true
		}
		end := serialize(&gw.nicFree, now, m.Size, n.par.FEBandwidth)
		n.deliverAt(end+n.feDelay, m)
	}
}

// lose gives up on a unit whose payload is gone at cluster at: a crashed
// gateway on its route, a hold-queue timeout or overflow. An unsequenced unit just vanishes
// (the loss is ARQ's to detect). A sequenced one must still consume its
// number at the destination's reassembler, or frames arriving over an
// alternate path (or after heal) would wait forever behind the gap: lost at
// the destination gateway the tombstone lands at once; lost mid-route it is
// scheduled the routed latency floor from the loss site away — the earliest a
// loss could become known remotely, and by construction >= the LP pair's
// lookahead floor, so the cross-LP schedule is legal in any window. (A single
// link's latency would undercut the end-to-end floor on multi-hop routes.)
// routeFloor is non-nil whenever a sequenced unit can be lost (SetFaultPolicy
// builds it).
func (n *Network) lose(sh *netShard, now time.Duration, at int, u *wireUnit) {
	cs, cd, seq := int(u.cs), int(u.cd), u.seq
	switch {
	case seq == noSeq: // no reassembler waits on it
	case at == cd:
		n.fileFrame(cs, cd, seq, nil, now)
	default:
		dst := n.sh[cd]
		sh.e.AtShard(dst.e, now+n.routeFloor[at][cd], func() {
			n.fileFrame(cs, cd, seq, nil, dst.e.Now())
		})
	}
	u.release(sh)
}

// xport holds the transport layer's per-directed-cluster-pair state,
// sparsely: queues materialize on first use, keyed by the far cluster, so a
// grid-scale platform pays for the pairs that talk, never C². egress[cs] is
// touched only from cluster cs's LP and ingress[cd] only from cluster cd's
// LP, so the layer needs no locks under a sharded engine.
type xport struct {
	egress  []map[int32]*egressQ // source cluster → destination → queue
	ingress []map[int32]*sim.Reorder[*wireUnit]
}

func newXport(n *Network) *xport {
	return &xport{
		egress:  make([]map[int32]*egressQ, n.nclusters),
		ingress: make([]map[int32]*sim.Reorder[*wireUnit], n.nclusters),
	}
}

// egressFor returns cluster cs's coalescing queue toward cd, creating it on
// first use (on cs's LP).
func (n *Network) egressFor(cs, cd int) *egressQ {
	m := n.xp.egress[cs]
	if m == nil {
		m = make(map[int32]*egressQ, 4)
		n.xp.egress[cs] = m
	}
	eg := m[int32(cd)]
	if eg == nil {
		eg = &egressQ{n: n, cs: cs, cd: cd}
		eg.flushFn = eg.timerFlush // bound once; the timer never allocates
		// Frames stripe over the first link of the route: its stream count
		// is the round-robin modulus for the whole directed pair.
		eg.mod = len(n.adj[cs][n.linkIndex(cs, n.graph.Next(cs, cd))].pipes)
		m[int32(cd)] = eg
	}
	return eg
}

// ingressFor returns cluster cd's reassembly window for frames from cs,
// creating it on first use (always on cd's LP: arrivals run there, and
// mid-route loss tombstones are scheduled onto it by lose). It holds early
// frames by sequence number; a nil frame is the tombstone of a lost one
// (payload gone, sequence number still consumed).
func (n *Network) ingressFor(cs, cd int) *sim.Reorder[*wireUnit] {
	m := n.xp.ingress[cd]
	if m == nil {
		m = make(map[int32]*sim.Reorder[*wireUnit], 4)
		n.xp.ingress[cd] = m
	}
	iq := m[int32(cs)]
	if iq == nil {
		iq = new(sim.Reorder[*wireUnit])
		m[int32(cs)] = iq
	}
	return iq
}

// enqueue replaces forward as the source-gateway stage when the transport
// layer is on: the message has crossed Fast Ethernet to its local gateway and
// joins the egress queue of its directed cluster pair.
func (u *wireUnit) enqueue() {
	n := u.n
	sh := n.sh[u.cs]
	m, cs, cd := u.msgs[0], u.cs, u.cd
	u.release(sh)
	n.egressFor(int(cs), int(cd)).add(sh.e.Now(), m)
}

// egressQ is the coalescing queue of one directed cluster pair, living at the
// source cluster's gateway.
type egressQ struct {
	n        *Network
	cs, cd   int
	u        *wireUnit     // frame under construction (nil between frames)
	deadline time.Duration // flush instant of the frame being built
	seq      int64         // next frame sequence number
	stream   int           // next round-robin stream index
	mod      int           // stream count of the pair's first route link
	flushFn  func()
}

// add appends one message to the frame under construction, arming the flush
// timer when the frame is fresh and flushing early when the size bound is
// hit. A zero CoalesceWindow arms the timer at the current instant, so the
// layer still batches messages that reach the gateway at the same virtual
// time (the timer runs after every already-scheduled event of that instant).
func (eg *egressQ) add(now time.Duration, m Msg) {
	n := eg.n
	u := eg.u
	if u == nil {
		sh := n.sh[eg.cs]
		u = n.getUnit(sh)
		u.cs, u.cd = int32(eg.cs), int32(eg.cd)
		// The pair's next number and stream, committed (advanced) only when
		// flush gets the frame past the fault verdict and onto the wire.
		u.seq, u.stream = eg.seq, int16(eg.stream)
		eg.u = u
		eg.deadline = now + n.par.CoalesceWindow
		sh.e.At(eg.deadline, eg.flushFn)
	}
	u.msgs = append(u.msgs, m)
	u.bytes += m.Size
	if n.par.MaxFrameBytes > 0 && u.bytes >= n.par.MaxFrameBytes {
		eg.flush(now)
	}
}

// timerFlush fires at the deadline armed by the frame's first message. When
// the frame was already flushed by the size bound, the queue is either empty
// or holds a younger frame with a later deadline; both make the timer stale.
func (eg *egressQ) timerFlush() {
	now := eg.n.sh[eg.cs].e.Now()
	if eg.u == nil || now < eg.deadline {
		return
	}
	eg.flush(now)
}

// flush seals the frame under construction and transmits it. The fault
// verdict comes first — a sequence number is consumed only by a frame that
// actually enters a pipe, so a frame lost at the local gateway leaves no gap
// for the remote reassembler to wait on.
func (eg *egressQ) flush(now time.Duration) {
	n := eg.n
	u := eg.u
	eg.u = nil
	sh := n.sh[eg.cs]
	if n.fault != nil && !n.admit(sh, now, u) {
		return
	}
	eg.seq++
	eg.stream++
	if eg.stream >= eg.mod {
		eg.stream = 0
	}
	n.transmit(sh, eg.cs, u.hop(), now)
}

// fileFrame files frame seq of pair cs→cd at the pair's reassembler and
// unpacks at now every frame that is then next in sequence. u is the frame,
// or nil for the tombstone of a frame whose payload was lost (remote gateway
// crash, mid-route loss, hold-queue drop), so later frames are not held
// forever behind the loss. A frame reaches its reassembler at most once or is
// lost at most once, never both: a number filed twice is an invariant
// violation.
func (n *Network) fileFrame(cs, cd int, seq int64, u *wireUnit, now time.Duration) {
	iq := n.ingressFor(cs, cd)
	if !iq.Put(uint64(seq), u) {
		panic(fmt.Sprintf("netsim: frame %d of pair %d->%d filed twice at its reassembler", seq, cs, cd))
	}
	unpackInOrder(iq, now)
}

// unpackInOrder consumes the frames that are next in sequence. Held frames
// unpack now (they arrived earlier but must not overtake the gap filler);
// tombstones just advance the sequence.
func unpackInOrder(iq *sim.Reorder[*wireUnit], now time.Duration) {
	for {
		u, ok := iq.Take()
		if !ok {
			return
		}
		if u != nil {
			u.unpack(now)
			u.release(u.n.sh[u.cd])
		}
	}
}
