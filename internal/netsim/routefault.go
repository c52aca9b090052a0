// Route health and adaptive failover for link fault domains.
//
// When the installed fault policy schedules hard link failures
// (HasLinkDowns), every WAN transmission first asks routeOrHold for a live
// next hop. The preferred (static) hop is used when
// its link is up; otherwise the topology's redundancy is exploited — the
// second direction of a ring backbone, a one-intermediate detour on a mesh
// (cluster.Graph.NextAvoiding) — and the detour is counted as a reroute.
// When no route exists at all, the wire unit (plain message or coalesced
// frame) parks in a bounded per-destination hold queue at the gateway,
// retried on a virtual-time timer with exponential backoff and drained in
// FIFO order once a route heals. Units held past holdTimeout, or arriving
// at a full queue, are dropped and counted (HoldDrops): end-to-end recovery
// is ARQ's job, the network only bridges transient outages.
//
// Everything here is per-source-cluster state touched only on the owning
// cluster's LP, and every verdict is a pure function of virtual time, so
// sharded runs stay byte-identical to sequential ones. Without a link
// failure plan (!n.linkFaults) none of this code runs and the static
// routing path is untouched.
package netsim

import (
	"time"

	"albatross/internal/sim"
)

const (
	holdRetryBase = 10 * time.Millisecond  // first retry delay after parking
	holdRetryMax  = 160 * time.Millisecond // backoff cap while the route is down
	holdTimeout   = 2 * time.Second        // parked longer than this → dropped
	holdQueueCap  = 512                    // wire units per (gateway, destination)
)

// routeOrHold picks the next hop for a wire unit leaving cluster u.cur toward
// u.cd, or parks it. A non-empty hold queue for the destination means earlier
// traffic is still parked, so the unit queues behind it even if the route
// just healed (FIFO per channel is the ordering contract the upper layers
// rely on); the healed queue drains wholesale at the next retry tick.
func (n *Network) routeOrHold(sh *netShard, now time.Duration, u *wireUnit) (next int, ok bool) {
	cur, cd := u.cur, u.cd
	if q := n.hold[cur][int32(cd)]; q != nil && q.items.Len() > 0 {
		q.push(now, u)
		return 0, false
	}
	next, ok = n.routeNext(sh, now, cur, cd)
	if !ok {
		n.holdFor(cur, cd).push(now, u)
		return 0, false
	}
	return next, true
}

// routeNext computes a live next hop from cur toward cd, counting a reroute
// when the hop differs from the static route. ok is false when every
// candidate path's first link is down.
func (n *Network) routeNext(sh *netShard, now time.Duration, cur, cd int) (int, bool) {
	lf := n.fault
	next, ok := n.graph.NextAvoiding(cur, cd, func(a, b int) bool { return lf.LinkDown(now, a, b) })
	if !ok {
		return 0, false
	}
	if next != n.graph.Next(cur, cd) {
		sh.stats.reroutes++
	}
	return next, true
}

// holdItem is one parked wire unit; at is the parking instant, for the
// timeout.
type holdItem struct {
	u  *wireUnit
	at time.Duration
}

// holdQ is the bounded queue of wire units parked at cluster cur's gateway
// because no route toward cd exists. It lives in cur's per-cluster hold map
// and is touched only on cur's LP. Invariant: the retry timer is pending
// iff items is non-empty, so at most one timer per queue is ever in flight.
type holdQ struct {
	n       *Network
	cur, cd int
	items   sim.FIFO[holdItem]
	backoff time.Duration
	pending bool
	retryFn func() // bound to (*holdQ).retry once
}

// holdFor returns the hold queue for (cur → cd), creating it on first use
// (on cur's LP).
func (n *Network) holdFor(cur, cd int) *holdQ {
	m := n.hold[cur]
	if m == nil {
		m = make(map[int32]*holdQ, 2)
		n.hold[cur] = m
	}
	q := m[int32(cd)]
	if q == nil {
		q = &holdQ{n: n, cur: cur, cd: cd}
		q.retryFn = q.retry
		m[int32(cd)] = q
	}
	return q
}

// push parks one wire unit, arming the retry timer when the queue was idle.
// A full queue drops the newcomer immediately — bounding gateway memory
// beats preserving traffic the sender will retransmit anyway.
func (q *holdQ) push(now time.Duration, u *wireUnit) {
	sh := q.n.sh[q.cur]
	if q.items.Len() >= holdQueueCap {
		q.n.dropHeld(sh, now, u)
		return
	}
	sh.stats.heldMsgs++
	q.items.Push(holdItem{u, now})
	if !q.pending {
		q.pending = true
		q.backoff = holdRetryBase
		sh.e.At(now+q.backoff, q.retryFn)
	}
}

// retry fires on the backoff timer: age out units held past the timeout,
// then either drain the queue over a healed route or double the backoff and
// rearm. Draining transmits in arrival order at the retry instant — the
// pipe's FIFO serialization then spaces the burst out like any other queue.
func (q *holdQ) retry() {
	sh := q.n.sh[q.cur]
	now := sh.e.Now()
	for q.items.Len() > 0 && now-q.items.Peek().at >= holdTimeout {
		q.n.dropHeld(sh, now, q.items.Pop().u)
	}
	if q.items.Len() == 0 {
		q.pending = false
		return
	}
	if q.drain(sh, now) {
		q.pending = false
		return
	}
	q.backoff *= 2
	if q.backoff > holdRetryMax {
		q.backoff = holdRetryMax
	}
	sh.e.At(now+q.backoff, q.retryFn)
}

// drain transmits parked units in FIFO order while a route exists,
// reporting whether the queue emptied. Each unit routes individually so
// reroute accounting stays per transmission.
func (q *holdQ) drain(sh *netShard, now time.Duration) bool {
	for q.items.Len() > 0 {
		next, ok := q.n.routeNext(sh, now, q.cur, q.cd)
		if !ok {
			return false
		}
		q.n.transmitOn(sh, q.items.Pop().u, now, next)
	}
	return true
}

// dropHeld gives up on one parked wire unit (timeout or overflow): a counted
// verdict, then the common loss path.
func (n *Network) dropHeld(sh *netShard, now time.Duration, u *wireUnit) {
	sh.stats.holdDrops++
	n.lose(sh, now, u)
}
