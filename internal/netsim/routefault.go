// Routing: per-source route rows, adaptive failover around link fault
// domains, and hold queues.
//
// Every WAN hop reads its first link from the route row of the cluster it
// stands at: one entry per destination cluster, filled on first use and
// valid for one link-state epoch — an interval between consecutive instants
// of the fault policy's LinkChanges, across which no LinkDown answer moves.
// Without a link-failure plan there is one epoch and every entry is the
// static route (cluster.Graph.Next). With one, an entry is filled from
// cluster.Graph.NextAvoiding under LinkDown at the filling instant, so the
// policy is consulted once per (source, destination, epoch) however many
// units cross: the preferred (static) hop when its link is up, otherwise the
// topology's redundancy — the second direction of a ring backbone, a
// one-intermediate detour on a mesh — flagged in the entry as a reroute and
// counted on every transmission that takes it. When no route exists at all,
// the wire unit (plain message or coalesced frame) parks in a bounded
// per-destination hold queue at the gateway, retried on a virtual-time timer
// with exponential backoff and drained in FIFO order once a route heals.
// Units held past holdTimeout, or arriving at a full queue, are dropped and
// counted (HoldDrops): end-to-end recovery is ARQ's job, the network only
// bridges transient outages.
//
// Rows and hold queues are per-source-cluster state, like p99: sized in New
// (hold in SetFaultPolicy), materialized on the cluster's first use and
// touched only on the owning cluster's LP, whose clock moves a row's epoch
// forward monotonically (amortized one comparison per hop). Every answer is
// a pure function of virtual time, so sharded runs stay byte-identical to
// sequential ones.
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

// routeRow is one source cluster's cached routing answers, indexed by
// destination cluster, valid while the row's clock is inside the link-state
// epoch [linkChanges[epoch-1], linkChanges[epoch]).
type routeRow struct {
	epoch int
	ent   []routeEntry
}

// routeEntry is the answer from a row's cluster cur toward one destination,
// filled iff link != 0 or none. It holds a link index, not a pointer, so a
// row costs 8 bytes per destination.
type routeEntry struct {
	link    int32 // 1 + index of the route's first link in adj[cur]; 0 while unfilled or none
	reroute bool  // the link differs from the static route's (Graph.Next)
	none    bool  // every candidate path's first link is down: park
}

// route returns cluster cur's routing answer toward cd at now, the current
// instant of cur's LP, filling the entry on first use in the epoch.
func (n *Network) route(cur, cd int, now time.Duration) *routeEntry {
	row := &n.routes[cur]
	if row.ent == nil {
		row.ent = make([]routeEntry, n.nclusters)
	}
	for ch := n.linkChanges; row.epoch < len(ch) && now >= ch[row.epoch]; row.epoch++ {
		clear(row.ent) // some link changed state: every answer is stale
	}
	r := &row.ent[cd]
	if r.link == 0 && !r.none {
		*r = n.resolve(cur, cd, now)
	}
	return r
}

// resolve computes the answer route caches: the static next hop, or under a
// link-failure plan the live one (none when every candidate path's first
// link is down).
func (n *Network) resolve(cur, cd int, now time.Duration) routeEntry {
	static := n.graph.Next(cur, cd)
	next := static
	if n.linkChanges != nil {
		lf := n.fault
		var ok bool
		if next, ok = n.graph.NextAvoiding(cur, cd, func(a, b int) bool { return lf.LinkDown(now, a, b) }); !ok {
			return routeEntry{none: true}
		}
	}
	return routeEntry{link: int32(n.linkIndex(cur, next) + 1), reroute: next != static}
}

// routeNext returns the live first link from cur toward cd, counting a
// reroute when it is not the static route's; nil when no route exists.
func (n *Network) routeNext(sh *netShard, now time.Duration, cur, cd int) *adjLink {
	r := n.route(cur, cd, now)
	if r.link == 0 {
		return nil
	}
	if r.reroute {
		sh.stats.reroutes++
	}
	return &n.adj[cur][r.link-1]
}

// holdSet is the hold queues at one cluster's gateway, keyed by destination
// cluster; parked counts the units in all of them, so the map is probed only
// while something is parked.
type holdSet struct {
	qs     map[int32]*holdQ
	parked int
}

// parkedAt returns the non-empty hold queue at cur toward cd, if any.
func (n *Network) parkedAt(cur, cd int) *holdQ {
	if n.hold == nil || n.hold[cur].parked == 0 {
		return nil
	}
	if q := n.hold[cur].qs[int32(cd)]; q != nil && q.items.Len() > 0 {
		return q
	}
	return nil
}

// holdItem is one parked wire unit; at is the parking instant, for the
// timeout.
type holdItem struct {
	u  *wireUnit
	at time.Duration
}

// holdQ is the bounded queue of wire units parked at cluster cur's gateway
// because no route toward cd exists. It lives in cur's holdSet and is touched
// only on cur's LP. Invariant: the retry timer is pending
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
	m := n.hold[cur].qs
	if m == nil {
		m = make(map[int32]*holdQ, 2)
		n.hold[cur].qs = m
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
		q.n.dropHeld(sh, now, q.cur, u)
		return
	}
	sh.stats.heldMsgs++
	q.n.hold[q.cur].parked++
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
		q.n.dropHeld(sh, now, q.cur, q.pop())
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
		l := q.n.routeNext(sh, now, q.cur, q.cd)
		if l == nil {
			return false
		}
		q.n.transmitOn(sh, q.cur, q.pop().hop(), now, l)
	}
	return true
}

// pop unparks the oldest unit.
func (q *holdQ) pop() *wireUnit {
	q.n.hold[q.cur].parked--
	return q.items.Pop().u
}

// dropHeld gives up on one wire unit parked at cluster cur (timeout or
// overflow): a counted verdict, then the common loss path.
func (n *Network) dropHeld(sh *netShard, now time.Duration, cur int, u *wireUnit) {
	sh.stats.holdDrops++
	n.lose(sh, now, cur, u)
}
