package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"albatross/internal/rng"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.At(10*time.Millisecond, func() { got = append(got, 11) }) // FIFO at equal times
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("end time %v", e.Now())
	}
}

func TestPastEventRunsNow(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(5*time.Millisecond, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("past event ran at %v, want clamped to 10ms", at)
	}
}

func TestSleepAndCompute(t *testing.T) {
	e := NewEngine()
	var p1end, p2end time.Duration
	e.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Compute(7 * time.Millisecond)
		p1end = p.Now()
		if p.BusyTime() != 7*time.Millisecond {
			t.Errorf("busy %v", p.BusyTime())
		}
	})
	e.Go("b", func(p *Proc) {
		p.Compute(3 * time.Millisecond)
		p2end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p1end != 12*time.Millisecond || p2end != 3*time.Millisecond {
		t.Fatalf("ends %v %v", p1end, p2end)
	}
}

func TestProcsRunConcurrentlyInVirtualTime(t *testing.T) {
	// 10 procs each compute 1ms; virtual end time must be 1ms, not 10ms.
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Go("w", func(p *Proc) { p.Compute(time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("end %v, want 1ms", e.Now())
	}
}

func TestFutureBothOrders(t *testing.T) {
	e := NewEngine()
	f1 := NewFuture(e, "f1")
	f2 := NewFuture(e, "f2")
	var got1, got2 any
	e.Go("await-then-set", func(p *Proc) {
		got1 = f1.Await(p) // blocks: set at t=2ms
		got2 = f2.Await(p) // already set: immediate
	})
	e.Go("setter", func(p *Proc) {
		f2.Set("early")
		p.Sleep(2 * time.Millisecond)
		f1.Set(42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got1 != 42 || got2 != "early" {
		t.Fatalf("got %v %v", got1, got2)
	}
}

func TestFutureWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e, "f")
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			f.Await(p)
			woken++
			if p.Now() != time.Millisecond {
				t.Errorf("woke at %v", p.Now())
			}
		})
	}
	e.After(time.Millisecond, func() { f.Set(nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken %d", woken)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "m")
	var got []int
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Get(p).(int))
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Millisecond)
			m.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxMultipleWaiters(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "m")
	served := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			m.Get(p)
			served++
		})
	}
	e.After(time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			m.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 4 {
		t.Fatalf("served %d", served)
	}
}

func TestMailboxTryGet(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "m")
	if _, ok := m.TryGet(); ok {
		t.Fatal("TryGet on empty succeeded")
	}
	m.Put(7)
	v, ok := m.TryGet()
	if !ok || v.(int) != 7 {
		t.Fatalf("TryGet got %v %v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e, "never")
	e.Go("victim", func(p *Proc) { f.Await(p) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("err %v, want DeadlockError", err)
	}
	if len(d.Parked) != 1 || d.Parked[0] != "victim on future never" {
		t.Fatalf("parked %v", d.Parked)
	}
}

func TestDaemonExemptFromDeadlock(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "requests")
	e.Go("server", func(p *Proc) {
		p.SetDaemon(true)
		for {
			m.Get(p)
		}
	})
	e.Go("client", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Put("hello")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon reported as deadlock: %v", err)
	}
}

// TestStop ends an open-ended run, a timer that re-arms itself forever, at
// its deadline: the tick due at the deadline runs, the next one is reported.
func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.After(time.Millisecond, tick)
	}
	e.After(time.Millisecond, tick)
	e.SetDeadline(5 * time.Millisecond)
	var de *DeadlineError
	if err := e.Run(); !errors.As(err, &de) || de.Next != 6*time.Millisecond {
		t.Fatalf("Run() = %v, want a DeadlineError with the next tick at 6ms", err)
	}
	if n != 5 {
		t.Fatalf("ticks %d", n)
	}
}

// goroutinesSettleTo waits for the runtime goroutine count to drop to at
// most want (released goroutines need a moment to actually exit).
func goroutinesSettleTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count stuck at %d, want <= %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestStopReleasesParkedProcs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := NewEngine()
		m := NewMailbox(e, "never")
		// A run stopped by its deadline leaves a parked process, a daemon, a
		// sleeper whose wake lies past the deadline, and a process spawned
		// after Run returned: Shutdown must release all four.
		e.Go("parked", func(p *Proc) { m.Get(p) })
		e.Go("daemon", func(p *Proc) {
			p.SetDaemon(true)
			for {
				m.Get(p)
			}
		})
		e.Go("ticker", func(p *Proc) {
			p.Sleep(time.Millisecond)
			p.Sleep(time.Millisecond)
		})
		e.SetDeadline(time.Millisecond)
		var de *DeadlineError
		if err := e.Run(); !errors.As(err, &de) || de.Live != 3 {
			t.Fatalf("Run() = %v, want a DeadlineError with 3 processes live", err)
		}
		e.Go("never-started", func(p *Proc) {})
		e.Shutdown()
		if e.Live() != 0 {
			t.Fatalf("Live() = %d after Shutdown", e.Live())
		}
	}
	goroutinesSettleTo(t, baseline)
}

func TestShutdownReleasesDaemonsAfterCleanRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := NewEngine()
		m := NewMailbox(e, "requests")
		e.Go("server", func(p *Proc) {
			p.SetDaemon(true)
			for {
				m.Get(p)
			}
		})
		e.Go("client", func(p *Proc) { m.Put("hi") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		e.Shutdown() // idempotent
		if e.Live() != 0 {
			t.Fatalf("Live() = %d after Shutdown", e.Live())
		}
	}
	goroutinesSettleTo(t, baseline)
}

func TestShutdownRunsProcDefers(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "never")
	deferred := false
	e.Go("w", func(p *Proc) {
		defer func() { deferred = true }()
		m.Get(p)
	})
	if err := e.Run(); !errors.As(err, new(*DeadlockError)) {
		t.Fatalf("Run() = %v, want a DeadlockError", err)
	}
	e.Shutdown()
	if !deferred {
		t.Fatal("deferred function of killed proc did not run")
	}
}

func TestYieldLetsOthersRun(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}

// runRandomProgram builds a pseudo-random process network from seed and
// returns its final virtual time and a trace checksum.
func runRandomProgram(seed uint64) (time.Duration, uint64) {
	r := rng.New(seed)
	e := NewEngine()
	nprocs := 2 + r.Intn(6)
	nboxes := 1 + r.Intn(3)
	boxes := make([]*Mailbox, nboxes)
	for i := range boxes {
		boxes[i] = NewMailbox(e, "box")
	}
	var checksum uint64
	for i := 0; i < nprocs; i++ {
		pr := r.Derive(uint64(i))
		e.Go("w", func(p *Proc) {
			for step := 0; step < 20; step++ {
				switch pr.Intn(3) {
				case 0:
					p.Compute(time.Duration(pr.Intn(1000)) * time.Microsecond)
				case 1:
					boxes[pr.Intn(nboxes)].Put(pr.Uint64())
				case 2:
					b := boxes[pr.Intn(nboxes)]
					if v, ok := b.TryGet(); ok {
						checksum = checksum*31 + v.(uint64)
					}
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e.Now(), checksum
}

func TestDeterministicReplay(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed uint64) bool {
		t1, c1 := runRandomProgram(seed)
		t2, c2 := runRandomProgram(seed)
		return t1 == t2 && c1 == c2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePropertyMonotoneTime(t *testing.T) {
	// Property: regardless of the schedule of insertions, callbacks observe
	// a non-decreasing clock.
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		e := NewEngine()
		ok := true
		last := time.Duration(-1)
		var add func(depth int)
		add = func(depth int) {
			e.At(time.Duration(r.Intn(10000))*time.Microsecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if depth < 3 && r.Intn(2) == 0 {
					add(depth + 1)
				}
			})
		}
		for i := 0; i < 50; i++ {
			add(0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	e := NewEngine()
	e.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		_ = e.Run()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Go("w", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-1)
	})
	_ = e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

// TestMisusePanics: negative CPU work, a non-positive poll period, the reuse
// of a future that is unresolved or still waited on, a wake of a process
// that is not parked and a Shutdown from inside Run are rejected with a
// panic that says which.
func TestMisusePanics(t *testing.T) {
	inProc := func(fn func(p *Proc, m *Mailbox)) func() {
		return func() {
			e := NewEngine()
			m := NewMailbox(e, "box")
			var r any
			e.Go("w", func(p *Proc) { r = recovered(func() { fn(p, m) }) })
			_ = e.Run()
			panic(r)
		}
	}
	waited := NewFuture(NewEngine(), "waited")
	waited.done, waited.waiters = true, []*Proc{nil}
	for _, tc := range []struct {
		name, want string
		fn         func()
	}{
		{"Compute", "sim: negative Compute", inProc(func(p *Proc, _ *Mailbox) { p.Compute(-1) })},
		{"Ahead", "sim: negative Compute", inProc(func(p *Proc, _ *Mailbox) { p.Ahead(-1, func(any) {}, nil) })},
		{"Poll", "sim: non-positive Poll period", inProc(func(p *Proc, m *Mailbox) { m.Poll(p, 0, 0) })},
		{"ResetUnresolved", "sim: Future.Reset of unresolved f", func() { NewFuture(NewEngine(), "f").Reset("g") }},
		{"ResetWaited", "sim: Future.Reset with waiters on waited", func() { waited.Reset("g") }},
		{"WakeDone", "sim: wake of w which is done", func() {
			e := NewEngine()
			p := e.Go("w", func(*Proc) {})
			_ = e.Run()
			e.wake(p)
		}},
		{"ShutdownInRun", "sim: Engine.Shutdown called during Run", func() {
			e := NewEngine()
			e.At(0, e.Shutdown)
			_ = e.Run()
		}},
	} {
		if r := recovered(tc.fn); r != tc.want {
			t.Errorf("%s: panic %v, want %q", tc.name, r, tc.want)
		}
	}
}

func TestProcIntrospection(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "box")
	p := e.Go("worker", func(p *Proc) {
		if p.name != "worker" || p.id != 0 {
			t.Errorf("name/id wrong: %s %d", p.name, p.id)
		}
		if p.Engine() != e {
			t.Error("Engine() mismatch")
		}
		m.Get(p) // park so the engine can inspect the state
	})
	e.After(time.Millisecond, func() {
		if got := p.String(); got != "worker(#0,parked)" {
			t.Errorf("String() = %q", got)
		}
		if n := m.waiters.Len(); n != 1 {
			t.Errorf("%d waiters, want 1", n)
		}
		m.Put("go")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Procs()) != 1 {
		t.Fatalf("Procs() = %d", len(e.Procs()))
	}
	if p.String() != "worker(#0,done)" {
		t.Fatalf("final String() = %q", p.String())
	}
	for st, want := range map[procState]string{procReady: "ready", procRunning: "running", procDone + 1: "invalid"} {
		if st.String() != want {
			t.Errorf("state %d is %q, want %q", st, st.String(), want)
		}
	}
}

func TestMailboxLen(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "box")
	m.Put(1)
	m.Put(2)
	if m.Len() != 2 {
		t.Fatalf("Len() = %d", m.Len())
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e, "once")
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Set did not panic")
		}
	}()
	f.Set(2)
}

func TestFutureDoneAndValue(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e, "v")
	if f.Done() || f.val != nil {
		t.Fatal("fresh future claims resolution")
	}
	f.Set(42)
	if !f.Done() || f.val != 42 {
		t.Fatal("resolved future wrong")
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	d := &DeadlockError{Time: time.Second, Parked: []string{"a on future f"}}
	if !strings.Contains(d.Error(), "a on future f") || !strings.Contains(d.Error(), "1s") {
		t.Fatalf("error message %q", d.Error())
	}
}

func TestLiveCount(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "m")
	e.Go("short", func(p *Proc) {})
	e.Go("long", func(p *Proc) { m.Get(p) })
	e.After(time.Millisecond, func() {
		if e.Live() != 1 {
			t.Errorf("Live() = %d mid-run, want 1", e.Live())
		}
		m.Put(nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d at end", e.Live())
	}
}

func TestDeadlineAbortsRunawayRun(t *testing.T) {
	e := NewEngine()
	m := NewMailbox(e, "never")
	e.Go("stuck", func(p *Proc) { m.Get(p) })
	var tick func()
	tick = func() { e.After(time.Millisecond, tick) } // livelock in virtual time
	e.After(0, tick)
	e.SetDeadline(10 * time.Millisecond)
	err := e.Run()
	var d *DeadlineError
	if !errors.As(err, &d) {
		t.Fatalf("err %v, want DeadlineError", err)
	}
	if d.Deadline != 10*time.Millisecond {
		t.Fatalf("deadline %v", d.Deadline)
	}
	if d.Next <= d.Deadline {
		t.Fatalf("next event %v not past deadline %v", d.Next, d.Deadline)
	}
	if len(d.Parked) != 1 || d.Parked[0] != "stuck on mailbox never" {
		t.Fatalf("parked %v", d.Parked)
	}
	if d.Live != 1 || d.Dispatched == 0 {
		t.Fatalf("live %d dispatched %d", d.Live, d.Dispatched)
	}
	if !strings.Contains(err.Error(), "stuck on mailbox never") {
		t.Fatalf("error message %q does not name the parked proc", err.Error())
	}
	e.Shutdown()
}

func TestDeadlineDoesNotPerturbCompletingRun(t *testing.T) {
	run := func(deadline time.Duration) (time.Duration, uint64) {
		e := NewEngine()
		e.Go("w", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		if deadline > 0 {
			e.SetDeadline(deadline)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Dispatched()
	}
	end0, n0 := run(0)
	end1, n1 := run(time.Second)
	if end0 != end1 || n0 != n1 {
		t.Fatalf("deadline perturbed a completing run: %v/%d vs %v/%d", end0, n0, end1, n1)
	}
}

func TestDeadlineBoundaryEventRuns(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(10*time.Millisecond, func() { ran = true })
	e.SetDeadline(10 * time.Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event scheduled exactly at the deadline did not run")
	}
}

func TestNegativeDeadlinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative deadline accepted")
		}
	}()
	NewEngine().SetDeadline(-1)
}
