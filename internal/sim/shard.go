package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Sharded (conservative parallel) execution.
//
// Shard splits an engine into K logical processes (LPs). Each LP is itself an
// Engine — its own event queue and process coroutines — with a
// runner goroutine of its own. The runners are ordinary goroutines, not
// locked to OS threads: an LP's windows run on its runner or inline on the
// coordinator, and a coroutine may only be resumed under the thread-lock
// state it was created with. The root engine becomes a coordinator: Run
// executes rounds of bounded time windows. Correctness rests on the
// scheduling contract that an LP may place work on another LP only via
// AtShard, at least the per-directed-pair lookahead L[src][dst] beyond its
// own clock (asserted at every call). Cross-LP events are collected in
// per-LP outboxes during a window and merged into the destination queues
// between rounds, so no LP ever receives an event in its own past.
//
// Fences are per-LP and distance-based (Chandy–Misra with link distances):
// with P_j the earliest instant LP j could still act at — its next pending
// event, or an in-flight cross event addressed to it — LP i may safely run
// to
//
//	F_i = min over j≠i of (P_j + L[j][i])
//
// where L is the lookahead matrix closed under relaying (an event can reach
// i through a chain of LPs, paying at least the closed distance; see
// SetLookaheadMatrix). Two refinements complete the bound. In-flight cross
// events addressed to i fence it directly at their arrival time. And an LP's
// own emissions can come back to it: once a window makes its first cross-LP
// call at clock t, the window's fence drops to t + bounce_i, where bounce_i
// is the cheapest round trip back to i via any other LP — windows that never
// emit keep their full width. LPs whose next event lies beyond their fence
// skip the round entirely (no wakeup, no idle window); when exactly one LP
// is runnable the coordinator runs its window inline, chaining windows
// without any fence round-trip; otherwise runnable LPs are released through
// an atomic epoch barrier.
//
// Determinism — the part that makes parallel execution byte-identical to the
// sequential engine — is a replay of the sequential seq counter. The
// sequential engine orders same-instant events by a single global counter
// bumped once per At/wake call. During a window an LP cannot observe the
// other LPs, so each LP's local execution order equals the sequential order
// restricted to that LP; only the global counter values are unknown. LPs
// therefore stamp events scheduled mid-window with provisional seqs (bit 63
// set, local assignment order) and keep two logs: execs — the events that
// scheduled something, in execution order — and calls, one entry per
// At/wake. Between rounds the coordinator K-way-merges the exec logs by
// (time, canonical seq) up to the round floor B = the minimum fence — every
// event below B has executed on its LP, so the merged prefix is exactly the
// sequential execution prefix — and replays the counter: each logged call
// receives the next canonical seq. Records at or beyond B (an LP that ran
// ahead of a lagging peer) are carried to a later merge, with the resolved
// prefix compacted away. Provisional seqs still in LP queues are rewritten in
// place (the rewrite is order-preserving, so the due lists stay sorted),
// outbox events whose creator merged are routed with their canonical seqs,
// and the next round starts from a state the sequential engine could have
// produced. Same configuration, same schedule, same counts — on any number
// of LPs and CPUs.
const provBase = uint64(1) << 63

// infFuture is the "no pending event" sentinel: far enough beyond any real
// virtual time, small enough that adding a lookahead distance cannot
// overflow.
const infFuture = time.Duration(math.MaxInt64 / 4)

// winState is the per-LP scheduling log of the current window run.
type winState struct {
	active  bool         // this LP's window loop is executing
	provCnt int          // provisional seqs outstanding (assigned, not yet resolved)
	calls   []bool       // one entry per At/wake call: false = local, true = cross-LP
	execs   []execRec    // events that made at least one call, in execution order
	outbox  []crossEvent // cross-LP events awaiting canonical seqs and routing

	crossT time.Duration // clock of the window's first cross-LP call (-1: none yet)
	ranTo  time.Duration // effective fence the last window ran to

	canonTab []uint64 // provisional index → canonical seq, filled by the merge
}

// execRec records one executed event that scheduled further work: its time,
// its own (canonical or provisional) seq, and how many calls it made.
type execRec struct {
	at  time.Duration
	key uint64
	n   int32
}

// crossEvent is an event bound for another LP, parked until its creator's
// exec record merges.
type crossEvent struct {
	dst *Engine
	at  time.Duration
	seq uint64
	fn  func()
}

// mergeCursor tracks one LP's consumed log prefixes during a merge.
type mergeCursor struct{ exec, call, prov, out int }

// Fence-slot sentinels for the epoch barrier.
const (
	fenceSkip   = int64(0)  // not this LP's round
	fenceRetire = int64(-1) // run is over, runner exits
)

// shardCrew is the root's set of persistent runner goroutines, one per LP,
// coordinated by an atomic epoch barrier: the coordinator publishes per-LP
// fences, bumps the epoch and kicks only the parked runners it needs; the
// last finisher of a round signals done. Runners spin briefly on the epoch
// before parking, so back-to-back busy rounds cost no channel operations.
type shardCrew struct {
	epoch  atomic.Uint64
	fences []atomic.Int64  // per LP: fence in ns, fenceSkip or fenceRetire
	parked []atomic.Bool   // per LP: runner is (about to be) blocked on wake
	wake   []chan struct{} // per LP: capacity-1 unpark kick
	active atomic.Int32    // runners still executing the current round
	done   chan struct{}   // capacity 1; the round's last finisher signals
	pans   []any           // recovered window panics, by LP index
}

// Shard splits the engine into n logical processes for conservative parallel
// execution and returns them. It must be called on a fresh engine, before
// anything is scheduled or spawned. After sharding, all scheduling and
// spawning must target the shard engines (the root rejects At and Go); the
// root's Run coordinates the LPs and its Now/Dispatched/Live aggregate them.
// SetLookahead or SetLookaheadMatrix must be called before Run.
func (e *Engine) Shard(n int) []*Engine {
	if n < 2 {
		panic("sim: Shard needs at least 2 LPs")
	}
	if e.root != nil {
		panic("sim: Shard on a shard engine")
	}
	if e.shards != nil {
		panic("sim: Shard called twice")
	}
	if e.seq != 0 || len(e.procs) != 0 {
		panic("sim: Shard on an engine that already scheduled work")
	}
	e.shards = make([]*Engine, n)
	for i := range e.shards {
		s := NewEngine()
		s.root = e
		s.lpIdx = i
		e.shards[i] = s
	}
	return e.shards
}

// Shards returns the LP engines of a sharded root (nil on a plain engine).
func (e *Engine) Shards() []*Engine { return e.shards }

// SetLookaheadMatrix declares the per-directed-LP-pair scheduling distance:
// every AtShard from LP i to LP j must target a time at least m[i][j] beyond
// the calling LP's clock. Entries off the diagonal must be positive; the
// diagonal is ignored (within-LP scheduling is unrestricted). The matrix is
// closed under relaying before use — an event can influence LP j by way of
// any chain of intermediate LPs, local scheduling inside a relay LP being
// free, so the effective floor for a pair is the shortest path through the
// declared entries. Fences are computed from the closed matrix, which is
// what makes per-LP fencing safe even when the declared entries violate the
// triangle inequality (an LP that hosts clusters near both endpoints of a
// long route collapses that route's floor).
func (e *Engine) SetLookaheadMatrix(m [][]time.Duration) {
	if e.shards == nil {
		panic("sim: SetLookaheadMatrix on an unsharded engine")
	}
	k := len(e.shards)
	if len(m) != k {
		panic(fmt.Sprintf("sim: lookahead matrix has %d rows for %d LPs", len(m), k))
	}
	d := make([]time.Duration, k*k)
	for i, row := range m {
		if len(row) != k {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries for %d LPs", i, len(row), k))
		}
		for j, v := range row {
			if i == j {
				continue
			}
			if v <= 0 {
				panic(fmt.Sprintf("sim: lookahead matrix entry [%d][%d] = %v, want positive", i, j, v))
			}
			d[i*k+j] = v
		}
	}
	// Floyd–Warshall with a free diagonal: close the declared floors under
	// relaying through intermediate LPs.
	for mid := 0; mid < k; mid++ {
		for i := 0; i < k; i++ {
			if i == mid {
				continue
			}
			dim := d[i*k+mid]
			for j := 0; j < k; j++ {
				if j == i || j == mid {
					continue
				}
				if v := dim + d[mid*k+j]; v < d[i*k+j] {
					d[i*k+j] = v
				}
			}
		}
	}
	e.installMatrix(d, true)
}

// SetLookahead declares a uniform cross-LP scheduling distance: every AtShard
// to a different LP must target a time at least d beyond the calling LP's
// clock. When a route-derived matrix is already installed (netsim.New
// installs one computed from the topology's routed paths), d must not exceed
// any pair's floor: a larger scalar would claim scheduling slack some route
// does not have, so the call panics naming the offending pair instead of
// silently overriding the matrix. A smaller d tightens every pair — always
// safe, only slower.
func (e *Engine) SetLookahead(d time.Duration) {
	if e.shards == nil {
		panic("sim: SetLookahead on an unsharded engine")
	}
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	k := len(e.shards)
	if e.laD != nil && e.laRouted {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && d > e.laD[i*k+j] {
					panic(fmt.Sprintf("sim: SetLookahead(%v) exceeds the route-derived lookahead floor %v "+
						"for LP pair %d→%d — the routed paths between those LPs cannot guarantee that much "+
						"scheduling slack; use SetLookaheadMatrix or a value within every pair's floor (see DESIGN.md §5c)",
						d, e.laD[i*k+j], i, j))
				}
			}
		}
	}
	m := make([]time.Duration, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				m[i*k+j] = d
			}
		}
	}
	e.installMatrix(m, e.laRouted)
}

// installMatrix stores a closed matrix and derives the per-LP bounce floors.
func (e *Engine) installMatrix(d []time.Duration, routed bool) {
	k := len(e.shards)
	e.laD = d
	e.laRouted = routed
	for i := 0; i < k; i++ {
		rt := infFuture
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			if v := d[i*k+j] + d[j*k+i]; v < rt {
				rt = v
			}
		}
		e.shards[i].bounce = rt
	}
}

// LookaheadBetween reports the closed lookahead floor for the directed LP
// pair src→dst (zero if src == dst or no matrix is installed). Callable on
// the root or any LP.
func (e *Engine) LookaheadBetween(src, dst int) time.Duration {
	root := e
	if e.root != nil {
		root = e.root
	}
	if root.laD == nil || src == dst {
		return 0
	}
	return root.laD[src*len(root.shards)+dst]
}

// SetCrossLPAudit installs a hook invoked on every cross-LP AtShard with the
// source LP, destination LP and scheduling delta (target minus the sender's
// clock). The hook runs on LP runner goroutines, concurrently; it must be safe
// for concurrent use and must not touch engine state. Observability/testing
// only; nil uninstalls.
func (e *Engine) SetCrossLPAudit(fn func(src, dst int, delta time.Duration)) {
	if e.shards == nil {
		panic("sim: SetCrossLPAudit on an unsharded engine")
	}
	e.crossAudit = fn
}

// AtShard schedules fn at absolute virtual time t on the dst engine. On a
// plain engine (or when dst is the caller) it is exactly dst.At. Across LPs
// of a sharded run it is the only legal scheduling path, and t must lie at
// least the pair's lookahead floor beyond the calling LP's clock — the call
// panics on violations.
func (e *Engine) AtShard(dst *Engine, t time.Duration, fn func()) {
	e.census.Callback++
	e.scheduleOn(dst, t, fn)
}

// scheduleOn is AtShard without the census entry, which the caller makes on
// e: the scheduling LP is the one whose thread is running.
func (e *Engine) scheduleOn(dst *Engine, t time.Duration, fn func()) {
	w := e.win
	if dst == e || w == nil {
		dst.schedule(t, fn)
		return
	}
	if !w.active {
		panic("sim: AtShard from outside the calling LP's window")
	}
	root := e.root
	if floor := root.laD[e.lpIdx*len(root.shards)+dst.lpIdx]; t < e.now+floor {
		panic(fmt.Sprintf("sim: lookahead violation: LP %d scheduled a cross-LP event on LP %d at %v, "+
			"only %v beyond its clock %v — AtShard targets must lie at least the pair's lookahead "+
			"floor (%v) beyond the sender's clock (see DESIGN.md §5c)",
			e.lpIdx, dst.lpIdx, t, t-e.now, e.now, floor))
	}
	if root.crossAudit != nil {
		root.crossAudit(e.lpIdx, dst.lpIdx, t-e.now)
	}
	if w.crossT < 0 {
		w.crossT = e.now
	}
	w.calls = append(w.calls, true)
	w.outbox = append(w.outbox, crossEvent{dst: dst, at: t, fn: fn})
}

// winAt is At during a window: stamp a provisional seq and log the call.
func (e *Engine) winAt(w *winState, t time.Duration, fn func()) {
	if !w.active {
		// Another LP is scheduling on this LP mid-window: that is the
		// zero-lookahead coupling sharded execution cannot order. (Legal
		// cross-LP scheduling goes through AtShard.)
		panic(fmt.Sprintf("sim: cross-LP At on LP %d without lookahead — a timer or direct At "+
			"shared across clusters; route it through AtShard / a WAN message, or schedule it on "+
			"the owning cluster's engine (see DESIGN.md §5c)", e.lpIdx))
	}
	seq := provBase | uint64(w.provCnt)
	w.provCnt++
	w.calls = append(w.calls, false)
	e.q.push(event{at: t, seq: seq, fn: fn})
}

// rootSeq draws the next canonical seq from the root's global counter: the
// setup-phase scheduling path of shard engines (single-threaded, so shared
// counter access is safe, and cross-LP t=0 ties order exactly as the
// sequential engine would order them).
func (e *Engine) rootSeq() uint64 {
	e.root.seq++
	return e.root.seq
}

// runWindow executes this LP's events with at < fence, in the LP-local
// (time, seq) order, logging every event that schedules further work. The
// first cross-LP call at clock t lowers the fence to t + bounce: beyond that
// point the emission could already have come back to this LP through another
// LP, so the window must not outrun its own output. Events execute in
// non-decreasing time order, so nothing past the lowered fence has run when
// the clamp lands.
func (e *Engine) runWindow(fence time.Duration) {
	w := e.win
	w.active = true
	w.crossT = -1
	d0 := e.dispatched
	for {
		if w.crossT >= 0 {
			if f := w.crossT + e.bounce; f < fence {
				fence = f
			}
		}
		// Events due now run whatever the fence: the LP reached now below it.
		ev, ok := e.q.popThrough(fence - 1)
		if !ok {
			break
		}
		e.now = ev.at
		e.execOne(w, ev.at, ev.seq, ev.fn)
	}
	w.active = false
	w.ranTo = fence
	e.winWindows++
	if e.dispatched == d0 {
		e.winIdle++
	}
}

// execOne dispatches one event and appends an exec record if it scheduled
// anything.
func (e *Engine) execOne(w *winState, at time.Duration, key uint64, fn func()) {
	base := len(w.calls)
	e.dispatched++
	fn()
	if n := len(w.calls) - base; n > 0 {
		w.execs = append(w.execs, execRec{at: at, key: key, n: int32(n)})
	}
}

// runSharded is Run for a sharded root: fence rounds, window execution,
// replay merge. See the package comment at the top of this file.
func (e *Engine) runSharded() error {
	if e.laD == nil {
		panic("sim: sharded Run without SetLookahead")
	}
	if _, _, _, ok := e.q.next(); ok {
		panic("sim: events scheduled on the sharded root engine")
	}
	k := len(e.shards)
	if e.laP == nil {
		e.laP = make([]time.Duration, k)
		e.laIn = make([]time.Duration, k)
		e.laF = make([]time.Duration, k)
		e.mergeCur = make([]mergeCursor, k)
	}
	for _, s := range e.shards {
		s.win = &s.winBuf
	}
	crew := e.startCrew()
	defer func() {
		for i := range crew.fences {
			crew.fences[i].Store(fenceRetire)
		}
		crew.epoch.Add(1)
		for i := range crew.parked {
			if crew.parked[i].Load() {
				select {
				case crew.wake[i] <- struct{}{}:
				default:
				}
			}
		}
		e.crew = nil
		for _, s := range e.shards {
			s.win = nil
		}
	}()

	for {
		// P_j: the earliest instant LP j could still act at of its own
		// accord. The peek leaves the LP's queue base where it is: a merge
		// below may still queue an event earlier than the peeked time.
		anyPending := false
		for i, s := range e.shards {
			e.laP[i] = infFuture
			if at, _, _, ok := s.q.next(); ok {
				e.laP[i] = at
			}
			if e.laP[i] < infFuture {
				anyPending = true
			}
			e.laIn[i] = infFuture
		}
		// In-flight floors: cross events whose creator's exec record has not
		// merged yet sit unrouted in their sender's outbox. Each fences its
		// destination directly at its arrival time (it will land in the
		// destination queue at a future merge), and contributes to minNext
		// exactly as the pending event it is in the sequential engine.
		minOut := infFuture
		for _, s := range e.shards {
			w := &s.winBuf
			for idx := range w.outbox {
				c := &w.outbox[idx]
				if d := c.dst.lpIdx; c.at < e.laIn[d] {
					e.laIn[d] = c.at
				}
				if c.at < minOut {
					minOut = c.at
				}
			}
		}
		if !anyPending && minOut == infFuture {
			// Every queue drained. Flush carried exec records so each
			// remaining scheduling call gets its canonical seq, and leave.
			e.mergeWindow(infFuture)
			break
		}
		minNext := minOut
		for i := range e.laP {
			if e.laP[i] < minNext {
				minNext = e.laP[i]
			}
		}
		if e.deadline > 0 && minNext > e.deadline {
			return e.finish(minNext, true)
		}
		// Distance fences. An LP skips the round when its next event lies at
		// or beyond its fence; with exactly one runnable LP the coordinator
		// runs the window inline — no barrier, no runner.
		nAct, soleAct := 0, -1
		for i := range e.shards {
			f := infFuture
			for j := range e.shards {
				if j == i {
					continue
				}
				b := e.laP[j]
				if e.laIn[j] < b {
					b = e.laIn[j]
				}
				if b >= infFuture {
					continue
				}
				if v := b + e.laD[j*k+i]; v < f {
					f = v
				}
			}
			if e.laIn[i] < f {
				f = e.laIn[i]
			}
			if e.deadline > 0 && f > e.deadline+1 {
				// Nothing beyond the deadline may execute; events at exactly
				// the deadline still do, matching the sequential abort point.
				f = e.deadline + 1
			}
			e.laF[i] = f
			if e.laP[i] < f {
				nAct++
				soleAct = i
			}
		}
		switch {
		case nAct == 0:
			// Nothing runnable this round: the floor is held down by an
			// in-flight cross event. Its creator's record lies below the
			// floor, so the merge below routes it and the next round makes
			// progress.
		case nAct == 1:
			s := e.shards[soleAct]
			func() {
				defer func() {
					if r := recover(); r != nil {
						panic(fmt.Sprintf("sim: LP %d window panic: %v", soleAct, r))
					}
				}()
				s.runWindow(e.laF[soleAct])
			}()
			s.winChained++
		default:
			crew.active.Store(int32(nAct))
			for i := range e.shards {
				if e.laP[i] < e.laF[i] {
					crew.fences[i].Store(int64(e.laF[i]))
				} else {
					crew.fences[i].Store(fenceSkip)
				}
			}
			crew.epoch.Add(1)
			for i := range e.shards {
				if e.laP[i] < e.laF[i] && crew.parked[i].Load() {
					select {
					case crew.wake[i] <- struct{}{}:
					default:
					}
				}
			}
			<-crew.done
			for i, p := range crew.pans {
				if p != nil {
					panic(fmt.Sprintf("sim: LP %d window panic: %v", i, p))
				}
			}
		}
		// Round floor: every event below B has executed on its LP (runnable
		// LPs ran at least to their effective fence; skipped LPs had nothing
		// below theirs), so the merged prefix is exactly the sequential one.
		B := infFuture
		for i, s := range e.shards {
			f := e.laF[i]
			if e.laP[i] < e.laF[i] {
				f = s.winBuf.ranTo
			}
			if f < B {
				B = f
			}
		}
		e.mergeWindow(B)
	}
	return e.finish(0, false)
}

// startCrew launches one runner goroutine per LP, parked on the epoch
// barrier.
func (e *Engine) startCrew() *shardCrew {
	crew := &shardCrew{
		fences: make([]atomic.Int64, len(e.shards)),
		parked: make([]atomic.Bool, len(e.shards)),
		wake:   make([]chan struct{}, len(e.shards)),
		done:   make(chan struct{}, 1),
		pans:   make([]any, len(e.shards)),
	}
	for i := range crew.wake {
		crew.wake[i] = make(chan struct{}, 1)
	}
	e.crew = crew
	for i, s := range e.shards {
		go crew.runner(i, s)
	}
	return crew
}

// runner executes one LP's windows: spin briefly on the epoch, park on the
// wake channel when the coordinator has nothing for this LP, run the window
// when a fence is published, and let the round's last finisher signal done.
func (c *shardCrew) runner(i int, s *Engine) {
	var seen uint64
	// waitStart brackets the idle gap between finishing one window and
	// starting the next one this LP participates in: the wall-clock cost of
	// fence synchronization, per LP.
	var waitStart time.Time
	for {
		spins := 0
		for c.epoch.Load() == seen {
			if spins++; spins > 128 {
				c.parked[i].Store(true)
				if c.epoch.Load() == seen {
					<-c.wake[i]
				}
				c.parked[i].Store(false)
				spins = 0
			}
		}
		seen = c.epoch.Load()
		// Swap consumes the fence, so each published fence runs once. A
		// runner that read a skipped round's epoch may find the next round's
		// fence already stored, before that round's epoch bump; it runs the
		// window early, and on seeing the bump must not run it again.
		f := c.fences[i].Swap(fenceSkip)
		switch f {
		case fenceRetire:
			return
		case fenceSkip:
			continue
		}
		if !waitStart.IsZero() {
			s.fenceWait += time.Since(waitStart)
		}
		func() {
			finished := false
			defer func() {
				if r := recover(); r != nil {
					c.pans[i] = r
				} else if !finished {
					// A process body's Goexit (t.Fatal) is taking this runner
					// down with it; the coordinator must not wait for it again.
					c.pans[i] = "runtime.Goexit in a process body"
				}
				if c.active.Add(-1) == 0 {
					c.done <- struct{}{}
				}
			}()
			s.runWindow(time.Duration(f))
			finished = true
		}()
		waitStart = time.Now()
	}
}

// mergeWindow replays the scheduling calls of every exec record below the
// round floor in sequential order and routes their cross-LP events. Records
// at or beyond the floor — an LP that ran ahead of a lagging peer — are
// carried: their resolved provisional prefix is compacted away and their
// remaining keys reindexed, so the logs stay small and the next merge picks
// up where this one stopped. Runs on the coordinator with every
// runner quiescent (the epoch barrier provides the happens-before edges).
func (e *Engine) mergeWindow(limit time.Duration) {
	cur := e.mergeCur
	for i := range cur {
		cur[i] = mergeCursor{}
	}
	for _, E := range e.shards {
		w := E.win
		if E.q.tail != nil {
			panic("sim: LP due-now list not empty at fence")
		}
		if cap(w.canonTab) < w.provCnt {
			w.canonTab = make([]uint64, w.provCnt)
		}
		w.canonTab = w.canonTab[:w.provCnt]
		for i := range w.canonTab {
			w.canonTab[i] = 0
		}
	}
	// K-way merge of the exec-log prefixes below the floor by (time,
	// canonical seq): the order the sequential engine would have executed
	// these events in. A provisional head key always translates: the event's
	// creator ran earlier on the same LP (records are logged in execution
	// order, times non-decreasing), so its calls were already replayed.
	for {
		best := -1
		var bAt time.Duration
		var bKey uint64
		for s, E := range e.shards {
			w := E.win
			if cur[s].exec >= len(w.execs) {
				continue
			}
			r := w.execs[cur[s].exec]
			if r.at >= limit {
				continue
			}
			k := r.key
			if k >= provBase {
				k = w.canonTab[k&^provBase]
				if k == 0 {
					panic("sim: window merge saw an event before its creator")
				}
			}
			if best < 0 || r.at < bAt || (r.at == bAt && k < bKey) {
				best, bAt, bKey = s, r.at, k
			}
		}
		if best < 0 {
			break
		}
		w := e.shards[best].win
		r := w.execs[cur[best].exec]
		cur[best].exec++
		for i := int32(0); i < r.n; i++ {
			e.seq++
			if w.calls[cur[best].call] {
				w.outbox[cur[best].out].seq = e.seq
				cur[best].out++
			} else {
				w.canonTab[cur[best].prov] = e.seq
				cur[best].prov++
			}
			cur[best].call++
		}
	}
	// Rewrite provisional seqs: resolved indexes (the replayed prefix) get
	// their canonical values, carried ones shift down by the resolved count.
	// Canonical seqs are assigned in each LP's call order and all exceed the
	// pre-merge counter, so the rewrite preserves the relative order of
	// every pair of events — the due lists stay sorted. This pass must
	// complete before any outbox routing below: a routed event's canonical
	// seq orders against the destination's resolved seqs by value, which
	// only holds once those are rewritten.
	for s, E := range e.shards {
		w := E.win
		res := cur[s].prov
		canon := func(sq uint64) uint64 {
			if sq < provBase {
				return sq
			}
			if p := int(sq &^ provBase); p < res {
				return w.canonTab[p]
			} else {
				return provBase | uint64(p-res)
			}
		}
		E.q.rewrite(canon)
		for i := cur[s].exec; i < len(w.execs); i++ {
			w.execs[i].key = canon(w.execs[i].key)
		}
		w.provCnt -= res
		n := copy(w.execs, w.execs[cur[s].exec:])
		w.execs = w.execs[:n]
		n = copy(w.calls, w.calls[cur[s].call:])
		w.calls = w.calls[:n]
	}
	// Route the replayed outbox prefixes. Every cross-LP event lands at or
	// beyond its destination's executed horizon — that is what the per-pair
	// floors and the in-flight fences guarantee; the check is a cheap
	// backstop.
	for s, E := range e.shards {
		w := E.win
		for i := 0; i < cur[s].out; i++ {
			c := &w.outbox[i]
			if c.at < c.dst.now {
				panic(fmt.Sprintf("sim: lookahead violation: a cross-LP event from LP %d arrived at %v, "+
					"inside LP %d's executed past (clock %v) — AtShard targets must lie at least the "+
					"pair's lookahead floor beyond the sender's clock (see DESIGN.md §5c)",
					s, c.at, c.dst.lpIdx, c.dst.now))
			}
			c.dst.q.push(event{at: c.at, seq: c.seq, fn: c.fn})
		}
		n := copy(w.outbox, w.outbox[cur[s].out:])
		tail := w.outbox[n:]
		for i := range tail {
			tail[i] = crossEvent{}
		}
		w.outbox = w.outbox[:n]
	}
}

// sharded-mode aggregate accessors (root engine)

// LPStats reports one LP's window-synchronization counters from a sharded
// run: how many bounded windows it executed, how many of those dispatched no
// event on this LP (pure synchronization overhead — zero under per-LP
// fencing, which skips such rounds outright), how many windows ran inline on
// the coordinator with no fence round-trip, how many events it dispatched in
// total, and the wall-clock time its runner spent waiting between the
// windows it participated in. Windows minus Chained is the LP's fence
// participations. The counters are observability only — they never influence
// the simulation and are excluded from the byte-identity surface.
type LPStats struct {
	LP          int
	Windows     uint64        // windows executed by this LP
	IdleWindows uint64        // windows with zero events on this LP
	Chained     uint64        // windows run inline on the coordinator (no barrier)
	Events      uint64        // events dispatched by this LP
	FenceWait   time.Duration // wall-clock fence-barrier wait
}

// ShardStats returns the per-LP window counters of a sharded root engine,
// accumulated across its runs so far. It returns nil on an unsharded engine.
// Call it after Run (or between runs); it must not race a live window.
func (e *Engine) ShardStats() []LPStats {
	if e.shards == nil {
		return nil
	}
	out := make([]LPStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = LPStats{
			LP:          i,
			Windows:     s.winWindows,
			IdleWindows: s.winIdle,
			Chained:     s.winChained,
			Events:      s.dispatched,
			FenceWait:   s.fenceWait,
		}
	}
	return out
}

// shardedNow reports the furthest LP clock: the virtual instant the run has
// reached, equal to the sequential engine's clock at the same point.
func (e *Engine) shardedNow() time.Duration {
	now := e.now
	for _, s := range e.shards {
		if s.now > now {
			now = s.now
		}
	}
	return now
}
