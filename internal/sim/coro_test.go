package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests of the coroutine handoff's edges: how a process body that panics or
// calls runtime.Goexit leaves Run, Shutdown from a foreign goroutine over
// processes in every state, and a coroutine created on one goroutine being
// resumed on another (the sharded engine does that routinely).

// goid reports the calling goroutine's id, parsed from its stack header.
// Test-only: it tells the coordinator goroutine from an LP's runner.
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1] // "goroutine N [running]:"
}

// recovered runs fn and returns the value it panicked with (nil if none).
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("boom")
	e := NewEngine()
	m := NewMailbox(e, "never")
	bystanderUnwound := false
	e.Go("bystander", func(p *Proc) {
		defer func() { bystanderUnwound = true }()
		m.Get(p)
	})
	victim := e.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(boom)
	})
	// The panic must arrive on this goroutine, out of Run, with the original
	// value — not kill the program from a goroutine of the body's own.
	if r := recovered(func() { _ = e.Run() }); r != boom {
		t.Fatalf("Run panicked with %v, want the body's own value %v", r, boom)
	}
	if victim.String() != "victim(#1,done)" || e.Live() != 1 {
		t.Fatalf("after the panic: %v, Live() = %d; want the victim done and 1 live", victim, e.Live())
	}
	e.Shutdown()
	if !bystanderUnwound || e.Live() != 0 {
		t.Fatalf("Shutdown after a body panic: bystander unwound %v, Live() = %d", bystanderUnwound, e.Live())
	}
	goroutinesSettleTo(t, baseline)
}

func TestProcGoexitSurfacesOnRunCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	m := NewMailbox(e, "never")
	e.Go("bystander", func(p *Proc) { m.Get(p) })
	e.Go("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit() // what t.Fatal does inside a body
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = e.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned normally; the body's Goexit should end Run's caller")
	}
	if e.Live() != 1 {
		t.Fatalf("Live() = %d after the Goexit, want 1 (the bystander)", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown", e.Live())
	}
	goroutinesSettleTo(t, baseline)
}

// TestShardedProcPanic: a body that panics or Goexits in an LP window — run
// by the LP's runner or inline on the coordinator — surfaces from the root's
// Run as the window panic naming the LP, and leaves the root Shutdown-able.
func TestShardedProcPanic(t *testing.T) {
	cases := []struct {
		name   string
		inline bool // LP 0 stays empty, so LP 1's window runs on the coordinator
		goexit bool
		want   string
	}{
		{"runner/panic", false, false, "sim: LP 1 window panic: boom"},
		{"inline/panic", true, false, "sim: LP 1 window panic: boom"},
		{"runner/goexit", false, true, "sim: LP 1 window panic: runtime.Goexit in a process body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			root := NewEngine()
			lps := root.Shard(2)
			root.SetLookahead(time.Millisecond)
			never := NewMailbox(lps[1], "never")
			lps[1].Go("bystander", func(p *Proc) { never.Get(p) })
			if !tc.inline {
				// Work on both LPs at the same instants keeps every round on
				// the runners.
				lps[0].Go("peer", func(p *Proc) {
					for i := 0; i < 50; i++ {
						p.Sleep(100 * time.Microsecond)
					}
				})
			}
			lps[1].Go("victim", func(p *Proc) {
				p.Sleep(300 * time.Microsecond)
				if tc.goexit {
					runtime.Goexit()
				}
				panic("boom")
			})
			if r := recovered(func() { _ = root.Run() }); r != tc.want {
				t.Fatalf("Run panicked with %v, want %q", r, tc.want)
			}
			root.Shutdown()
			if root.Live() != 0 {
				t.Fatalf("Live() = %d after Shutdown", root.Live())
			}
			goroutinesSettleTo(t, baseline)
		})
	}
}

// TestShutdownFromAnotherGoroutine aborts a run at a deadline with processes
// in every state Shutdown has to handle and releases them from a goroutine
// that is neither the one that ran Run nor the one any coroutine was created
// on.
func TestShutdownFromAnotherGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for rep := 0; rep < 10; rep++ {
		e := NewEngine()
		never := NewMailbox(e, "never")
		kick := NewMailbox(e, "kick")
		late := NewFuture(e, "late")
		var unwound []string
		note := func(s string) { unwound = append(unwound, s) }

		e.Go("parked", func(p *Proc) {
			defer note("parked")
			never.Get(p)
		})
		e.Go("woken", func(p *Proc) {
			defer note("woken")
			kick.Get(p)
		})
		e.Go("reparks", func(p *Proc) {
			defer note("reparks")
			defer func() {
				// Parking again mid-unwind must keep unwinding, not suspend.
				defer note("reparks-inner")
				never.Get(p)
			}()
			never.Get(p)
		})
		e.Go("wakes-and-spawns", func(p *Proc) {
			defer note("wakes-and-spawns")
			// Waking a process that has not unwound yet, and spawning one,
			// from a defer during the unwind: the wake is inert and the
			// newcomer is released without ever running.
			defer e.Go("spawned-in-defer", func(*Proc) { t.Error("spawned-in-defer ran") })
			defer late.Set(nil)
			never.Get(p)
		})
		e.Go("waiter", func(p *Proc) {
			defer note("waiter")
			late.Await(p)
		})
		var tick func()
		tick = func() { e.After(time.Millisecond, tick) }
		tick()
		e.SetDeadline(5 * time.Millisecond)
		runDone := make(chan error)
		go func() { runDone <- e.Run() }()
		var dl *DeadlineError
		if err := <-runDone; !errors.As(err, &dl) {
			t.Fatalf("err %v, want DeadlineError", err)
		}
		kick.Put(nil) // "woken" is now ready but will never be resumed
		e.Go("never-started", func(*Proc) { t.Error("never-started ran") })

		shutDone := make(chan struct{})
		go func() {
			defer close(shutDone)
			e.Shutdown()
		}()
		<-shutDone
		want := "parked woken reparks-inner reparks wakes-and-spawns waiter"
		if got := strings.Join(unwound, " "); got != want {
			t.Fatalf("unwind order %q, want %q", got, want)
		}
		if e.Live() != 0 {
			t.Fatalf("Live() = %d after Shutdown", e.Live())
		}
		for _, p := range e.Procs() {
			if p.state != procDone {
				t.Fatalf("%v not done after Shutdown", p)
			}
		}
	}
	goroutinesSettleTo(t, baseline)
}

// TestShardedResumeOnAnotherGoroutine starts a process in a window the
// coordinator runs inline and resumes it in a window its LP's runner runs.
// A coroutine must be resumed under the thread-lock state it was created
// with, so this is the case that makes the runtime throw if the runners lock
// their OS threads.
func TestShardedResumeOnAnotherGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	root := NewEngine()
	lps := root.Shard(2)
	root.SetLookahead(time.Millisecond)
	// Round 1: LP 1's first event lies at 10ms, beyond its 1ms fence, so LP 0
	// alone runs inline: "a" starts and parks on its mailbox. Round 2: LP 1
	// alone runs its 10ms event inline, which posts to LP 0 at 11.5ms; the
	// emission clamps the window to 12ms, short of LP 1's next event at
	// 12.2ms. Round 3: LP 0 is due at 11.5ms and LP 1 at 12.2ms, each inside
	// the other's fence — the runners take over, and LP 0's wakes "a".
	// A coroutine has a goroutine id of its own, so the windows' goroutines
	// are sampled from plain events in the same windows as the start and the
	// resume.
	box := NewMailbox(lps[0], "box")
	var where []string
	resumed := false
	lps[0].At(0, func() { where = append(where, goid()) })
	lps[0].Go("a", func(p *Proc) {
		box.Get(p)
		resumed = true
	})
	lps[1].At(10*time.Millisecond, func() {
		lps[1].AtShard(lps[0], 11500*time.Microsecond, func() {
			where = append(where, goid())
			box.Put(nil)
		})
		lps[1].After(2200*time.Microsecond, func() {})
	})
	caller := goid()
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed || len(where) != 2 || where[0] != caller || where[1] == caller {
		t.Fatalf("resumed %v, LP 0's windows ran on goroutines %v, Run on %s; want the process started on Run's goroutine and resumed on a runner",
			resumed, where, caller)
	}
	st := root.ShardStats()[0]
	if st.Chained == 0 || st.Windows == st.Chained {
		t.Fatalf("LP 0 ran %d windows, %d inline; the test needs both kinds", st.Windows, st.Chained)
	}
	root.Shutdown()
	goroutinesSettleTo(t, baseline)
}

// TestShardedShutdownFromAnotherGoroutine: processes parked on every LP
// after a sharded deadlock — their coroutines last ran on the runners — are
// released by a Shutdown on a third goroutine.
func TestShardedShutdownFromAnotherGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	root := NewEngine()
	lps := root.Shard(3)
	root.SetLookahead(time.Millisecond)
	unwound := 0
	for i, lp := range lps {
		never := NewMailbox(lp, fmt.Sprintf("never-%d", i))
		lp.Go(fmt.Sprintf("stuck-%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			for k := 0; k < 20; k++ {
				p.Sleep(100 * time.Microsecond)
			}
			never.Get(p)
		})
	}
	var dead *DeadlockError
	if err := root.Run(); !errors.As(err, &dead) || len(dead.Parked) != 3 {
		t.Fatalf("err %v, want a deadlock naming 3 procs", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		root.Shutdown()
	}()
	<-done
	if unwound != 3 || root.Live() != 0 {
		t.Fatalf("unwound %d of 3, Live() = %d", unwound, root.Live())
	}
	goroutinesSettleTo(t, baseline)
}
