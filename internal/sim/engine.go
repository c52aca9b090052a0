// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// Simulated processes are coroutines (iter.Pull): the engine resumes a
// process with a direct switch into it and gets control back when the
// process parks or returns, without a trip through the scheduler or a
// channel. At any instant exactly one of them (the engine or a single
// process) holds the baton, so simulation state needs no locking and every
// run of the same configuration produces the identical event order and the
// identical virtual end time. A panic or runtime.Goexit in a process body
// surfaces from Run, on Run's caller, with the original value (wrapped in
// the LP's window panic on a sharded root).
//
// Time is virtual. A process advances its own clock with Compute or Sleep,
// synchronizes with others through Future and Mailbox, and the engine
// schedules arbitrary callbacks with At. When the event queue drains while
// processes are still parked, Run reports a deadlock naming the culprits.
//
// Every pending event sits in one monotone radix queue (queue.go) popped in
// strict (time, seq) order; an ordered stream of future events (a WAN pipe's
// arrivals) waits in a Lane, of which only the head is queued. A process that
// computes and then acts without observing can chain those steps
// (Proc.Ahead): same events, one switch into the process per chain.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"
	"time"
)

// Engine owns the virtual clock and the pending-event queue.
// Create one with NewEngine, spawn processes with Go, then call Run.
type Engine struct {
	now time.Duration
	q   queue  // every pending event, popped in (at, seq) order
	seq uint64 // schedule-order tiebreak

	chainer *Proc // the running process while it holds chained links (Proc.Ahead)

	dispatched uint64 // events executed so far (observability/testing)
	resumes    uint64 // switches into process coroutines
	census     Census // events scheduled so far, by origin

	deadline time.Duration // virtual-time abort limit; 0 = none

	procs []*Proc
	live  int // spawned but not yet exited

	running bool
	killing bool // Shutdown in progress or complete; primitives go inert

	// Sharded-mode links (all nil/zero on a plain sequential engine).
	// See shard.go for the conservative parallel execution they support.
	root   *Engine    // on an LP: the sharded root that owns it
	shards []*Engine  // on the root: the LP engines
	lpIdx  int        // on an LP: its index among the root's shards
	win    *winState  // on an LP: scheduling log, non-nil only during a sharded Run
	winBuf winState   // backing store for win, reused across windows
	crew   *shardCrew // on the root: runner goroutines, live during Run

	// Per-directed-LP-pair lookahead (see SetLookaheadMatrix). laD is the
	// relay-closed distance matrix, row-major k*k; bounce is each LP's
	// minimum round-trip floor back to itself via any other LP — the
	// earliest its own cross-LP emission can influence it again.
	laD        []time.Duration                         // root: closed lookahead matrix
	laRouted   bool                                    // root: laD came from SetLookaheadMatrix
	bounce     time.Duration                           // LP: min_j laD[i][j]+laD[j][i]
	crossAudit func(src, dst int, delta time.Duration) // root: AtShard audit hook (tests)
	laP        []time.Duration                         // root: per-round next-event scratch
	laIn       []time.Duration                         // root: per-round inbound-floor scratch
	laF        []time.Duration                         // root: per-round fence scratch
	mergeCur   []mergeCursor                           // root: merge cursor scratch

	// Per-LP window-synchronization counters (see LPStats). Written only by
	// the goroutine running the LP's windows during a sharded Run (its
	// runner, or the coordinator for inline windows), read after the fence
	// barrier or after Run returns.
	winWindows uint64        // windows executed
	winIdle    uint64        // windows that dispatched no event on this LP
	winChained uint64        // windows run inline on the coordinator, no fence round-trip
	fenceWait  time.Duration // wall-clock time spent waiting at window fences
}

// procKilled is the panic value used to unwind process coroutines during
// Shutdown. It is recovered by the spawn wrapper and never escapes.
type procKilled struct{}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time. On a sharded root it is the furthest
// LP clock — the instant the sequential engine would have reached.
func (e *Engine) Now() time.Duration {
	if e.shards != nil {
		return e.shardedNow()
	}
	return e.now
}

// Dispatched reports how many events the engine has executed so far (summed
// over the LPs on a sharded root). Two runs of the same configuration execute
// the identical count (used by the determinism tests).
func (e *Engine) Dispatched() uint64 {
	n := e.dispatched
	for _, s := range e.shards {
		n += s.dispatched
	}
	return n
}

// Resumes reports how many times the engine has switched into a process
// (summed over the LPs on a sharded root).
func (e *Engine) Resumes() uint64 {
	n := e.resumes
	for _, s := range e.shards {
		n += s.resumes
	}
	return n
}

// Census counts the events an engine has scheduled by what scheduled them.
// Every scheduled event is dispatched exactly once, so on a drained run the
// six counts sum to Dispatched(); a run cut short by its deadline leaves
// the difference in the queues. Like Dispatched it repeats exactly
// between runs of one configuration, on either engine.
type Census struct {
	Start    uint64 // process start events (Go)
	Sleep    uint64 // Proc.Sleep
	Compute  uint64 // Proc.Compute
	Wake     uint64 // resumes of a parked process (Future, Mailbox)
	Lane     uint64 // Lane.At
	Callback uint64 // At, After and AtShard
}

// Total is the number of events scheduled.
func (c Census) Total() uint64 {
	return c.Start + c.Sleep + c.Compute + c.Wake + c.Lane + c.Callback
}

func (c *Census) add(o Census) {
	c.Start += o.Start
	c.Sleep += o.Sleep
	c.Compute += o.Compute
	c.Wake += o.Wake
	c.Lane += o.Lane
	c.Callback += o.Callback
}

// Census reports what the engine has scheduled so far (summed over the LPs on
// a sharded root).
func (e *Engine) Census() Census {
	c := e.census
	for _, s := range e.shards {
		c.add(s.census)
	}
	return c
}

// SetDeadline makes Run abort with a *DeadlineError the moment virtual time
// would advance past d, instead of simulating a runaway (or livelocked-in-
// virtual-time) run to completion. Zero disables the deadline. Events
// scheduled exactly at d still execute. An aborted engine is finished:
// callers should Shutdown it, as after any other run.
func (e *Engine) SetDeadline(d time.Duration) {
	if d < 0 {
		panic("sim: negative deadline")
	}
	e.deadline = d
}

// At schedules fn to run at absolute virtual time t. Events scheduled for a
// time in the past run at the current time. Callbacks execute in the engine
// context: they must not block, but they may resume processes (via Future,
// Mailbox, or any primitive built on them) and schedule further events.
func (e *Engine) At(t time.Duration, fn func()) {
	e.census.Callback++
	e.schedule(t, fn)
}

// schedule is At without the census entry: the one path every origin's event
// takes into the queue of its own engine.
func (e *Engine) schedule(t time.Duration, fn func()) {
	if e.chainer != nil {
		e.chainer.misuse()
	}
	if w := e.win; w != nil {
		// Mid-window on an LP of a sharded run: provisional seq + call log.
		e.winAt(w, t, fn)
		return
	}
	if e.root != nil {
		// Setup phase on an LP: seqs come from the root's global counter, so
		// same-instant events across LPs order exactly as sequentially.
		e.q.push(event{at: t, seq: e.rootSeq(), fn: fn})
		return
	}
	if e.shards != nil {
		panic("sim: At on a sharded root engine (schedule on an LP)")
	}
	// A time in the past is clamped to now; the fresh seq still orders the
	// event after everything already due.
	e.seq++
	e.q.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// Go spawns a simulated process that begins executing body at the current
// virtual time. The name is used in deadlock reports and String.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	if e.shards != nil {
		panic("sim: Go on a sharded root engine (spawn on an LP)")
	}
	p := &Proc{e: e, id: len(e.procs), name: name, body: body}
	// The resume thunk is bound once per process; the start event, every
	// Sleep and every wake reuse it, so handing the baton to a process
	// allocates nothing.
	p.runFn = func() { e.handoff(p) }
	e.procs = append(e.procs, p)
	e.live++
	e.census.Start++
	e.schedule(e.now, p.runFn)
	return p
}

// start builds the coroutine for p. Its body runs from the first handoff;
// whichever way it ends (return, Shutdown unwind, panic, Goexit) the process
// is marked done before control comes back to the engine, and anything but
// the Shutdown unwind propagates out of that handoff.
func (e *Engine) start(p *Proc) {
	body := p.body
	p.body = nil
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			p.state = procDone
			e.live--
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
		}()
		p.yield = yield
		body(p)
		p.Sync()
	})
}

// handoff switches to p and returns once p parks or exits.
func (e *Engine) handoff(p *Proc) {
	if p.next == nil {
		e.start(p)
	}
	p.state = procRunning
	e.resumes++
	p.next()
}

// wake schedules p to resume at the current virtual time.
func (e *Engine) wake(p *Proc) { e.wakeAt(p, e.now) }

// wakeAt schedules parked p to resume at t (t ≤ now means now) with the
// process's pre-bound resume thunk, so it allocates nothing. A process whose
// resume is still ahead stays parked, reported as on a sleep.
func (e *Engine) wakeAt(p *Proc, t time.Duration) {
	if e.killing {
		// Wakes issued while dying processes unwind (e.g. a deferred
		// Future.Set) are meaningless: Shutdown releases every process.
		return
	}
	if p.state != procParked {
		panic(fmt.Sprintf("sim: wake of %s which is %v", p.name, p.state))
	}
	if w := e.win; w != nil && !w.active {
		panic(fmt.Sprintf("sim: cross-LP wake of %q on LP %d — a Future/Mailbox bound to "+
			"one cluster signalled from another without lookahead (typically a sequenced broadcast, "+
			"shared barrier, or global counter in the application; see DESIGN.md §5c/§5d)",
			p.waitReport(), e.lpIdx))
	}
	e.census.Wake++
	if t > e.now {
		p.waitKind, p.waitName = "sleep", ""
	} else {
		p.state = procReady
	}
	e.schedule(t, p.runFn)
}

// Run executes events in (time, seq) order until the queue drains. It
// returns a *DeadlockError if processes remain parked afterwards, and nil on
// clean completion.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Engine.Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.shards != nil {
		return e.runSharded()
	}
	last := time.Duration(math.MaxInt64)
	if e.deadline > 0 {
		last = e.deadline
	}
	for {
		ev, ok := e.q.popThrough(last)
		if !ok {
			break
		}
		e.now = ev.at
		e.dispatched++
		ev.fn()
	}
	next, _, _, pending := e.q.next()
	return e.finish(next, pending)
}

// finish ends a run on either engine: a run with an event pending beyond the
// deadline (at next) is a DeadlineError, and one that drained with processes
// parked a DeadlockError.
func (e *Engine) finish(next time.Duration, pending bool) error {
	parked := e.parkedReport()
	if pending {
		return &DeadlineError{Deadline: e.deadline, Next: next, Parked: parked, Dispatched: e.Dispatched(), Live: e.Live()}
	}
	if len(parked) > 0 {
		return &DeadlockError{Time: e.Now(), Parked: parked, Dispatched: e.Dispatched(), Live: e.Live()}
	}
	return nil
}

// parkedReport collects the sorted park strings ("name on primitive
// instance") of every non-daemon process still blocked.
func (e *Engine) parkedReport() []string {
	var parked []string
	for _, p := range e.procs {
		if p.state == procParked && !p.daemon {
			parked = append(parked, p.waitReport())
		}
	}
	for _, s := range e.shards {
		for _, p := range s.procs {
			if p.state == procParked && !p.daemon {
				parked = append(parked, p.waitReport())
			}
		}
	}
	sort.Strings(parked)
	return parked
}

// Shutdown releases every process the engine still owns: parked processes
// (daemons included), processes woken but not yet resumed, and processes
// spawned but never started. Suspended coroutines unwind via an internal
// panic, so deferred functions in process bodies still run, but re-parking
// or waking during the unwind is inert. Shutdown is idempotent, may be
// called from any goroutine once Run has returned (or panicked) but not from
// inside Run, and leaves the engine unusable for further simulation (state
// remains readable). Owners of engines whose run left processes behind
// (daemons, a deadline, a deadlock) call it to reclaim their goroutines.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Engine.Shutdown called during Run")
	}
	if e.killing {
		return
	}
	e.killing = true
	e.chainer = nil
	// On a sharded root, release every LP first: the runners are gone outside
	// Run, so each LP's coroutines are safe to drive from this goroutine.
	for _, s := range e.shards {
		s.Shutdown()
	}
	// Index loop: an unwinding process may spawn more procs via defers.
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		p.ch = nil // drop pending links
		switch {
		case p.state == procDone:
		case p.stop == nil:
			// Spawned but its start event never ran: no coroutine exists.
			p.state = procDone
			e.live--
		default:
			// Suspended in park's yield: stop makes the yield report false,
			// park unwinds, and the spawn wrapper marks the process done.
			p.stop()
		}
	}
}

// Procs returns the processes spawned so far, in spawn order.
func (e *Engine) Procs() []*Proc { return e.procs }

// Live reports how many spawned processes have not yet exited (summed over
// the LPs on a sharded root).
func (e *Engine) Live() int {
	n := e.live
	for _, s := range e.shards {
		n += s.live
	}
	return n
}

// DeadlockError reports processes that were still blocked when the event
// queue drained. It names every parked non-daemon process together with the
// primitive it blocks on, plus enough run state (events dispatched, live
// process count) to diagnose how far the run got before stalling.
type DeadlockError struct {
	Time       time.Duration
	Parked     []string // sorted "name on primitive instance" park strings
	Dispatched uint64   // events executed before the stall
	Live       int      // processes spawned but not yet exited
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v after %d events (%d procs live); parked: %s",
		d.Time, d.Dispatched, d.Live, strings.Join(d.Parked, ", "))
}

// DeadlineError reports a run aborted by SetDeadline: the next pending event
// lay beyond the virtual-time limit. Like DeadlockError it names every
// parked non-daemon process, so runaway runs are diagnosable the same way
// stalls are.
type DeadlineError struct {
	Deadline   time.Duration
	Next       time.Duration // virtual time of the event that would have run
	Parked     []string      // sorted park strings at abort time
	Dispatched uint64        // events executed before the abort
	Live       int           // processes spawned but not yet exited
}

func (d *DeadlineError) Error() string {
	msg := fmt.Sprintf("sim: deadline %v exceeded (next event at %v, %d events dispatched, %d procs live)",
		d.Deadline, d.Next, d.Dispatched, d.Live)
	if len(d.Parked) > 0 {
		msg += "; parked: " + strings.Join(d.Parked, ", ")
	}
	return msg
}
