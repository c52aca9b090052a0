//go:build !race

// Alloc-regression budget for the process switch. Everything a switch needs
// is built once per process at spawn: the resume thunk, the coroutine and
// its next/yield pair. Parking, waking and sleeping then only flip state and
// queue the thunk in a recycled queue node, so a steady-state switch must
// allocate nothing; a chain's link ring and thunk are built on its first
// Ahead, so a chained Compute allocates nothing either.
//
// Excluded under the race detector: instrumentation inflates allocation
// counts and the budget is meaningless there.
package sim

import (
	"testing"
	"time"
)

func TestAllocProcSwitch(t *testing.T) {
	cases := []struct {
		name string
		body func(p *Proc) // one cycle, after the kick's own park/wake
	}{
		{"park-wake", func(*Proc) {}},
		{"sleep", func(p *Proc) { p.Sleep(time.Microsecond) }},
		{"yield", func(p *Proc) { p.Sleep(0) }},
		{"ahead", func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Ahead(time.Microsecond, func(any) {}, nil)
			}
			p.Sync()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Shutdown()
			kick := NewMailbox(e, "kick")
			e.Go("switcher", func(p *Proc) {
				p.SetDaemon(true)
				for {
					kick.Get(p)
					tc.body(p)
				}
			})
			var tok any = "kick"
			step := func() {
				kick.Put(tok)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				step() // start the coroutine, grow the queue
			}
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Errorf("%.2f allocs per cycle, want 0", got)
			}
		})
	}
}

// TestAllocLane: a lane's ring and fire thunk are built once, so queueing a
// burst of arrivals behind one queue entry and firing them allocates nothing;
// nor does a burst whose inserts spill (due now, or earlier than the ring's
// tail) into plain events.
func TestAllocLane(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		name string
		at   func(now time.Duration, k int) time.Duration
	}{
		{"ring", func(now time.Duration, k int) time.Duration { return now + time.Duration(k)*us }},
		{"spill", func(now time.Duration, k int) time.Duration {
			if k%2 == 0 {
				return now
			}
			return now + time.Duration(49-k)*us
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			spills := 0
			l := NewLane(e, e, func(fn func()) { fn() }, func(fn func()) func() { spills++; return fn })
			fn := func() {}
			step := func() {
				for k := 1; k <= 48; k++ {
					l.At(c.at(e.Now(), k), fn)
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			step() // grow the ring and the queue
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Errorf("%.2f allocs per 48-insert burst, want 0", got)
			}
			if ringOnly := c.name == "ring"; (spills == 0) != ringOnly {
				t.Errorf("%d inserts spilled", spills)
			}
		})
	}
}

// TestAllocProcSpawn states what a process costs to create and run to
// completion, so a change to the spawn path shows up as a number: the Proc,
// its resume thunk and body wrapper (3), and iter.Pull's coroutine, closures
// and captured flags (11). The goroutine baton this replaced cost 6.
func TestAllocProcSpawn(t *testing.T) {
	e := NewEngine()
	e.procs = make([]*Proc, 0, 1024)
	body := func(*Proc) {}
	spawn := func() {
		e.Go("p", body)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		spawn()
	}
	if got := testing.AllocsPerRun(200, spawn); got > 14 {
		t.Errorf("%.1f allocs per spawned process, budget 14", got)
	}
}

// TestAllocFreeList: a warm Get/Put pair pops and pushes within the list's
// existing capacity.
func TestAllocFreeList(t *testing.T) {
	var f Free[event]
	f.Put(f.Get())
	if got := testing.AllocsPerRun(100, func() { f.Put(f.Get()) }); got != 0 {
		t.Fatalf("warm Get/Put allocates %v, want 0", got)
	}
}

// TestAllocContainers: once warm, a FIFO cycling a burst, a Reorder taking
// a reversed window, and a Slices list serving a buffer all stay within the
// storage they already have.
func TestAllocContainers(t *testing.T) {
	var q FIFO[event]
	var r Reorder[*Proc]
	var s Slices[any]
	p := new(Proc)
	cases := []struct {
		name string
		step func()
	}{
		{"fifo", func() {
			for k := 0; k < 40; k++ {
				q.Push(event{seq: uint64(k)})
			}
			for q.Len() > 0 {
				q.Pop()
			}
		}},
		{"reorder", func() {
			base := r.Next()
			for k := uint64(40); k > 0; k-- {
				r.Put(base+k-1, p)
			}
			for _, ok := r.Take(); ok; _, ok = r.Take() {
			}
		}},
		{"slices", func() { s.Put(s.Get(64)) }},
	}
	for _, tc := range cases {
		tc.step() // grow to the working size
		if got := testing.AllocsPerRun(100, tc.step); got != 0 {
			t.Errorf("%s: warm cycle allocates %v, want 0", tc.name, got)
		}
	}
}
