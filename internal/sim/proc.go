package sim

import (
	"fmt"
	"time"
)

// procState tracks where a process is in the handoff protocol.
type procState uint8

const (
	procReady   procState = iota // scheduled to run but not holding the baton
	procRunning                  // holds the baton
	procParked                   // blocked on a primitive, off the event queue
	procDone                     // body returned
)

func (s procState) String() string {
	switch s {
	case procReady:
		return "ready"
	case procRunning:
		return "running"
	case procParked:
		return "parked"
	case procDone:
		return "done"
	}
	return "invalid"
}

// Proc is a simulated process: a coroutine the engine switches into and that
// switches back when it blocks. All methods must be called from the
// process's own body function (they suspend it in virtual time).
type Proc struct {
	e      *Engine
	id     int
	name   string
	body   func(*Proc) // until the start event builds the coroutine
	runFn  func()      // pre-bound resume thunk: hands this proc the baton
	state  procState
	daemon bool // daemon procs may be left parked at end of run

	// The iter.Pull coroutine, nil until the process first runs: next
	// switches into the body, yield switches back to the engine and reports
	// false once stop has asked the body to unwind.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// What blocks us, split in two so parking never concatenates: the
	// primitive kind ("future ", "mailbox ", ...) and the instance name.
	// waitReport joins them only when a deadlock report needs the text.
	waitKind string
	waitName string

	// While parked in Mailbox.Poll, the poll grid pollAt + k·pollEvery
	// (k ≥ 0) the filling Put resumes the process on; pollEvery is 0 otherwise.
	pollAt, pollEvery time.Duration

	busy time.Duration // accumulated Compute time, for utilization metrics

	ch *chain // built on the first Ahead
}

// chain holds a process's chained links (Ahead).
type chain struct {
	links FIFO[link]    // links.Peek() is the one whose Compute event is queued
	run   func()        // that event's thunk: runs the head link
	end   time.Duration // the process's clock once the last link has run
}

// link is one chained step: a Compute of d, then fn(arg).
type link struct {
	d   time.Duration
	fn  func(any)
	arg any
}

// maxLinks bounds a chain; the next Ahead syncs first.
const maxLinks = 32

// SetDaemon marks the process as a daemon: a server that legitimately stays
// blocked forever (waiting for requests). Daemon processes parked when the
// event queue drains are not reported as deadlocks.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports the process's virtual time: the end of its chain while it
// holds chained links, the engine's clock otherwise.
func (p *Proc) Now() time.Duration {
	if p.e.chainer == p {
		return p.ch.end
	}
	return p.e.now
}

// BusyTime reports total virtual time this process has spent in Compute.
func (p *Proc) BusyTime() time.Duration { return p.busy }

func (p *Proc) String() string { return fmt.Sprintf("%s(#%d,%v)", p.name, p.id, p.state) }

// waitReport names a parked process and what it waits on.
func (p *Proc) waitReport() string {
	return p.name + " on " + p.waitKind + p.waitName
}

// park switches back to the engine and suspends until woken. During
// Shutdown (the yield reports false, at once if the unwind is already under
// way) it unwinds the process instead of suspending forever. kind and name
// describe the blocking primitive; they are stored as-is and joined only if
// a deadlock report is built, so parking allocates nothing.
func (p *Proc) park(kind, name string) {
	p.state = procParked
	p.waitKind = kind
	p.waitName = name
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
	p.waitKind = ""
	p.waitName = ""
}

// Sleep advances the process's clock by d without charging busy time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative Sleep")
	}
	p.Sync()
	p.e.census.Sleep++
	p.sleep(d)
}

// sleep parks the process until d from now; Sleep and Compute differ only in
// the census entry they make first.
func (p *Proc) sleep(d time.Duration) {
	p.e.schedule(p.e.now+d, p.runFn)
	p.park("sleep", "")
}

// Compute models d of CPU work: the clock advances and busy time accrues.
func (p *Proc) Compute(d time.Duration) {
	if d < 0 {
		panic("sim: negative Compute")
	}
	p.Sync()
	p.busy += d
	p.e.census.Compute++
	p.sleep(d)
}

// Ahead has the effect of Compute(d); fn(arg) with the same census entry, busy
// time and seq, but fn runs in the event that ends the Compute, which queues
// the next link's Compute as the resumed process would, and the process runs
// on with Now at the chain's end. Until it syncs (every observing primitive
// does, Sync explicitly) it must not schedule anything itself: the engine
// panics. A chain holds at most 32 links; the next Ahead syncs first.
func (p *Proc) Ahead(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		panic("sim: negative Compute")
	}
	e, c := p.e, p.ch
	if c == nil {
		c = &chain{run: func() { e.runLink(p) }}
		c.links.buf = make([]link, maxLinks) // a chaining process soon fills one
		p.ch = c
	}
	if c.links.Len() == maxLinks {
		p.Sync()
	}
	if c.links.Len() == 0 {
		p.step(d)
		c.end = e.now
		e.chainer = p
	}
	c.end += d
	c.links.Push(link{d, fn, arg})
}

// Sync parks the process, reported as on a sleep, until its chained links
// have run; the last one's event hands the baton straight back.
func (p *Proc) Sync() {
	if p.ch == nil || p.ch.links.Len() == 0 {
		return
	}
	p.e.chainer = nil
	p.park("sleep", "")
}

// runLink ends the head link's Compute: it runs the link's action, then queues
// the next link's Compute or, after the last, resumes the process in Sync.
func (e *Engine) runLink(p *Proc) {
	c := p.ch
	l := c.links.Pop()
	l.fn(l.arg)
	if c.links.Len() == 0 {
		e.handoff(p)
		return
	}
	p.step(c.links.Peek().d)
}

// step queues the event ending a link's Compute of d, as Compute would.
func (p *Proc) step(d time.Duration) {
	p.busy += d
	p.e.census.Compute++
	p.e.schedule(p.e.now+d, p.ch.run)
}

// misuse reports a schedule by p while it holds links that precede it.
func (p *Proc) misuse() {
	panic(fmt.Sprintf("sim: %s scheduled an event with %d chained links pending", p.name, p.ch.links.Len()))
}

// Charge adds d to the busy time without advancing the clock: a Compute folded
// into a wait that lasts at least d, such as Mailbox.Poll with first ≥ now+d.
func (p *Proc) Charge(d time.Duration) { p.busy += d }

// Future is a one-shot synchronization cell: many processes may Await it,
// one Set resolves it and wakes them all. A Future may be Set at most once.
// The zero value is ready to use once bound to an engine via NewFuture.
type Future struct {
	e       *Engine
	name    string
	done    bool
	val     any
	waiters []*Proc
}

// NewFuture creates an unresolved future. The name appears in deadlock
// reports of processes blocked on it.
func NewFuture(e *Engine, name string) *Future {
	return &Future{e: e, name: name}
}

// Done reports whether the future has been resolved.
func (f *Future) Done() bool { return f.done }

// Set resolves the future and wakes all waiters at the current virtual time.
// It may be called from event callbacks or process context.
func (f *Future) Set(v any) {
	if f.done {
		panic("sim: Future.Set called twice on " + f.name)
	}
	f.done = true
	f.val = v
	for i, w := range f.waiters {
		// Wake through the waiter's own engine: a future may be bound to a
		// sharded root while its waiters live on LP engines (identical to
		// f.e on a plain engine, where every proc shares it).
		w.e.wake(w)
		f.waiters[i] = nil
	}
	f.waiters = f.waiters[:0]
}

// Reset re-arms a resolved future for reuse under a new name, so hot paths
// can pool futures instead of allocating one per call. The caller must have
// consumed the value already: the future must be resolved and waiter-free.
func (f *Future) Reset(name string) {
	if !f.done {
		panic("sim: Future.Reset of unresolved " + f.name)
	}
	if len(f.waiters) != 0 {
		panic("sim: Future.Reset with waiters on " + f.name)
	}
	f.name = name
	f.done = false
	f.val = nil
}

// Await blocks the calling process until the future resolves and returns the
// value. If already resolved it returns immediately without yielding.
func (f *Future) Await(p *Proc) any {
	p.Sync()
	if f.done {
		return f.val
	}
	f.waiters = append(f.waiters, p)
	p.park("future ", f.name)
	return f.val
}

// Mailbox is an unbounded FIFO queue of values with blocking receive.
// Multiple receivers are served in arrival order.
type Mailbox struct {
	e       *Engine
	name    string
	q       FIFO[any]
	waiters FIFO[*Proc]
}

// NewMailbox creates an empty mailbox.
func NewMailbox(e *Engine, name string) *Mailbox {
	return &Mailbox{e: e, name: name}
}

// Len reports the number of queued values.
func (m *Mailbox) Len() int { return m.q.Len() }

// Put enqueues v and resumes the longest-waiting receiver if any: a Get
// caller now, a Poll caller at the first instant of its grid not before now.
// It never blocks and may be called from event callbacks or process context.
func (m *Mailbox) Put(v any) {
	m.q.Push(v)
	if m.waiters.Len() > 0 {
		w := m.waiters.Pop()
		// The waiter's engine and clock, as in Future.Set.
		t := w.e.now
		if w.pollEvery > 0 {
			late := t - w.pollAt
			t = w.pollAt
			if late > 0 {
				t += (late + w.pollEvery - 1) / w.pollEvery * w.pollEvery
			}
		}
		w.e.wakeAt(w, t)
	}
}

// Get dequeues the oldest value, blocking the process until one arrives.
func (m *Mailbox) Get(p *Proc) any {
	p.Sync()
	m.wait(p)
	return m.q.Pop()
}

// wait parks the process until the mailbox holds a value.
func (m *Mailbox) wait(p *Proc) {
	for m.q.Len() == 0 {
		m.waiters.Push(p)
		p.park("mailbox ", m.name)
	}
}

// Poll returns at the earliest instant first + k·period (k ≥ 0) at which the
// mailbox holds a value, and leaves the value queued: the instant a process
// that looks at first and then once per period would see it. If a value is
// already queued Poll sleeps to first (it returns at once if first is not in
// the future); otherwise it parks, and the Put that fills the mailbox
// schedules the resume, so an idle stretch of any length costs one event.
// Poll does not consume, and Put resumes one waiter per value: a mailbox that
// mixes Poll and Get callers must have a single consumer, or a Poll caller
// absorbs the wake a blocked Get was owed.
func (m *Mailbox) Poll(p *Proc, first, period time.Duration) {
	if period <= 0 {
		panic("sim: non-positive Poll period")
	}
	p.Sync()
	if m.q.Len() > 0 {
		if d := first - p.e.now; d > 0 {
			p.Sleep(d)
		}
		return
	}
	p.pollAt, p.pollEvery = first, period
	m.wait(p)
	p.pollEvery = 0
}

// TryGet dequeues the oldest value without blocking; ok is false if empty.
func (m *Mailbox) TryGet() (v any, ok bool) {
	if m.q.Len() == 0 {
		return nil, false
	}
	return m.q.Pop(), true
}
