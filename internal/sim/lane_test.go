package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"albatross/internal/rng"
)

// The lane contract is differential: an engine whose FIFO streams go through
// lanes must dispatch exactly what an engine given the same inserts as plain
// At calls dispatches — same order, same clock at every event, same count,
// same error. laneProgram decodes a byte string into such a schedule and runs
// it either way. The lanes carry their callbacks as items (Lane[func()]), and
// every lane insert is checked against the spill rule: it leaves the ring
// exactly when it is due now or earlier than the newest event still waiting
// in the lane's ring.
//
// Byte 0 sets a deadline (0 = none, else b × 8 µs); byte 1 the number of
// events scheduled before Run. Every event is three bytes:
//
//	op    bits 0-1  target: 0 = plain At, 1-3 = a lane
//	      bits 2-3  time: 0 = now + d, 1 = the target's newest time (a tie, or
//	                the past once the clock has moved on), 2 = newest − d (out
//	                of order), 3 = newest + d (FIFO growth: deep lanes)
//	      bits 4-7  unused
//	d     delay in µs
//	kids  bits 0-1  events it schedules when it runs, decoded from the bytes
//	                that follow
//
// The cursor is shared by all events, so what an event schedules depends on
// the dispatch order so far: engines that diverge once keep diverging, and
// the traces differ.
type laneTrace struct {
	Order      [][2]int64 // (event id, clock) per dispatch
	Dispatched uint64
	End        time.Duration
	Err        string
	Next       time.Duration // DeadlineError.Next
}

func laneProgram(t testing.TB, data []byte, lanes bool) laneTrace {
	e := NewEngine()
	var ls [3]*Lane[func()]
	var ringed [3]int         // per lane: inserts waiting in the ring
	var tail [3]time.Duration // per lane: time of the newest of them
	spilled := 0
	for i := range ls {
		ls[i] = NewLane(e, e,
			func(fn func()) { ringed[i]--; fn() },
			func(fn func()) func() { spilled++; return fn })
	}
	var tr laneTrace
	pos, id := 0, 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var newest [4]time.Duration
	var emit func()
	emit = func() {
		if pos >= len(data) {
			return
		}
		op, d, kids := next(), time.Duration(next())*time.Microsecond, int(next()&3)
		target := int(op & 3)
		var at time.Duration
		switch op >> 2 & 3 {
		case 0:
			at = e.Now() + d
		case 1:
			at = newest[target]
		case 2:
			at = newest[target] - d
		case 3:
			at = newest[target] + d
		}
		newest[target] = max(newest[target], at)
		me := id
		id++
		fn := func() {
			tr.Order = append(tr.Order, [2]int64{int64(me), int64(e.Now())})
			for k := 0; k < kids; k++ {
				emit()
			}
		}
		if target == 0 || !lanes {
			e.At(at, fn)
			return
		}
		k := target - 1
		leaves := at <= e.Now() || (ringed[k] > 0 && at < tail[k])
		before := spilled
		ls[k].At(at, fn)
		if ran := spilled - before; ran > 1 || (ran == 1) != leaves {
			t.Fatalf("event %d at %v on lane %d (clock %v, %d ringed, tail %v): spill ran %d times; leaves the ring: %v",
				me, at, k, e.Now(), ringed[k], tail[k], ran, leaves)
		}
		if !leaves {
			ringed[k]++
			tail[k] = at
		}
	}
	e.SetDeadline(time.Duration(next()) * 8 * time.Microsecond)
	for k := int(next()); k > 0; k-- {
		emit()
	}
	err := e.Run()
	tr.Dispatched, tr.End = e.Dispatched(), e.Now()
	if err != nil {
		tr.Err = err.Error()
		var dl *DeadlineError
		if errors.As(err, &dl) {
			tr.Next = dl.Next
		}
	}
	if err == nil {
		// Drained: every slot a lane ever used must have let go of its closure.
		for i, l := range ls {
			if l.q.Len() != 0 {
				t.Errorf("lane %d still holds %d events after a drained run", i, l.q.Len())
			}
			for j, ev := range l.q.buf {
				if ev.item != nil {
					t.Errorf("lane %d slot %d retains a callback", i, j)
				}
			}
		}
	}
	return tr
}

// newCallLane returns a lane whose items are the events' callbacks.
func newCallLane(src, dst *Engine) *Lane[func()] {
	return NewLane(src, dst, func(fn func()) { fn() }, func(fn func()) func() { return fn })
}

func checkLaneProgram(t testing.TB, data []byte) {
	t.Helper()
	plain := laneProgram(t, data, false)
	laned := laneProgram(t, data, true)
	if !reflect.DeepEqual(plain, laned) {
		n := min(len(plain.Order), len(laned.Order))
		for i := 0; i < n; i++ {
			if plain.Order[i] != laned.Order[i] {
				t.Fatalf("dispatch %d: plain (id, clock) %v, lanes %v", i, plain.Order[i], laned.Order[i])
			}
		}
		plain.Order, laned.Order = plain.Order[n:], laned.Order[n:]
		t.Fatalf("after %d equal dispatches: plain %+v, lanes %+v", n, plain, laned)
	}
}

// laneSeeds are hand-written programs for the corners: a deep FIFO lane under
// plain traffic, same-instant ties across lanes and At, out-of-order and
// past-time lane inserts, events that refill their own lane, a deadline that
// lands inside a lane, and an event whose op has bits 4-7 set.
var laneSeeds = [][]byte{
	{},
	{0, 1, 0x01, 5, 0},
	// Eight FIFO arrivals on lane 1, each 3 µs after the last, then plain
	// events landing between them.
	{0, 12, 0x0D, 3, 0, 0x0D, 3, 0, 0x0D, 3, 0, 0x0D, 3, 0, 0x0D, 3, 0, 0x0D, 3, 0, 0x0D, 3, 0, 0x0D, 3, 0,
		0x00, 4, 0, 0x00, 9, 0, 0x00, 9, 0, 0x00, 30, 0},
	// Ties: the same instant on lanes 1, 2, 3 and At, interleaved.
	{0, 8, 0x01, 7, 0, 0x02, 7, 0, 0x00, 7, 0, 0x03, 7, 0, 0x05, 0, 0, 0x06, 0, 0, 0x04, 0, 0, 0x07, 0, 0},
	// Out of order and into the past on a lane that already queues.
	{0, 5, 0x0D, 20, 0, 0x0D, 20, 0, 0x09, 15, 0, 0x09, 200, 0, 0x05, 0, 0},
	// Every event reschedules on its own lane, at now, at the tail and behind it.
	{0, 3, 0x0D, 10, 3, 0x0E, 10, 3, 0x0F, 10, 3,
		0x01, 0, 1, 0x05, 0, 1, 0x09, 3, 1, 0x0D, 1, 2, 0x02, 0, 2, 0x06, 9, 2, 0x0A, 0, 1, 0x0E, 2, 1, 0x03, 1, 0},
	// Deadline 40 µs with a lane reaching to 80 µs.
	{5, 8, 0x0D, 10, 0, 0x0D, 10, 0, 0x0D, 10, 0, 0x0D, 10, 0, 0x0D, 10, 0, 0x0D, 10, 0, 0x0D, 10, 0, 0x0D, 10, 0},
	// The third arrival's op has bits 4-7 set: an ordinary FIFO arrival.
	{0, 6, 0x0D, 10, 0, 0x0E, 11, 0, 0xFD, 10, 0, 0x0D, 10, 0, 0x0E, 10, 0, 0x00, 90, 0},
}

func FuzzLaneOrder(f *testing.F) {
	for _, s := range laneSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		checkLaneProgram(t, data)
	})
}

// TestLaneOrderRandomPrograms runs the fuzz target's check over a few thousand
// generated programs, so the default suite covers more than the seeds.
func TestLaneOrderRandomPrograms(t *testing.T) {
	r := rng.New(19)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 2+3*r.Intn(200))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		if i%2 == 0 {
			data[0] = 0 // half without a deadline, so long programs run out
		}
		if i%3 == 0 {
			for j := 2; j < len(data); j += 3 {
				data[j] |= 0x0C // a third FIFO-heavy: deep lanes
			}
		}
		checkLaneProgram(t, data)
	}
}

func TestLaneDeadline(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		e := NewEngine()
		l := newCallLane(e, e)
		ran := 0
		for k := 1; k <= 5; k++ {
			at := time.Duration(k) * time.Millisecond
			if lanes {
				l.At(at, func() { ran++ })
			} else {
				e.At(at, func() { ran++ })
			}
		}
		e.SetDeadline(2500 * time.Microsecond)
		var dl *DeadlineError
		if err := e.Run(); !errors.As(err, &dl) {
			t.Fatalf("lanes=%v: Run returned %v, want a DeadlineError", lanes, err)
		}
		if dl.Next != 3*time.Millisecond || dl.Dispatched != 2 || ran != 2 {
			t.Errorf("lanes=%v: Next %v, Dispatched %d, ran %d; want 3ms, 2, 2", lanes, dl.Next, dl.Dispatched, ran)
		}
		e.Shutdown()
	}
}

// TestLaneStopAndShutdown: a deadline with lanes still full stops the run at
// the deadline like any other, Shutdown releases the parked process, and the
// slots of the events that did run no longer hold their closures.
func TestLaneStopAndShutdown(t *testing.T) {
	e := NewEngine()
	l := newCallLane(e, e)
	e.Go("parked", func(p *Proc) { NewMailbox(e, "never").Get(p) })
	ran := 0
	for k := 1; k <= 10; k++ {
		l.At(time.Duration(k)*time.Millisecond, func() { ran++ })
	}
	e.SetDeadline(3 * time.Millisecond)
	var dl *DeadlineError
	if err := e.Run(); !errors.As(err, &dl) || dl.Next != 4*time.Millisecond {
		t.Fatalf("Run() = %v, want a DeadlineError with the next event at 4ms", err)
	}
	if ran != 3 || e.Dispatched() != 4 || e.Now() != 3*time.Millisecond {
		t.Errorf("ran %d, dispatched %d, clock %v; want 3, 4 (with the process start), 3ms", ran, e.Dispatched(), e.Now())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("%d processes live after Shutdown", e.Live())
	}
	if l.q.Len() != 7 {
		t.Errorf("lane holds %d, want 7", l.q.Len())
	}
	for j := 0; j < 3; j++ {
		if l.q.buf[j].item != nil {
			t.Errorf("slot %d retains the callback of an event that ran", j)
		}
	}
	e.Shutdown() // idempotent with lanes non-empty
}

// TestLaneShardedPassThrough: on the LPs of a sharded run a lane is AtShard,
// so the sharded world with lanes equals the sequential world with and
// without them, and the lanes' rings are never used.
func TestLaneShardedPassThrough(t *testing.T) {
	want := buildWorld(t, 4, 3, 40, false).run()
	for _, sharded := range []bool{false, true} {
		w := buildWorld(t, 4, 3, 40, sharded)
		w.lanes = make([]*Lane[func()], 4*4)
		got := w.run()
		if got.err != nil {
			t.Fatalf("sharded=%v: %v", sharded, got.err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("sharded=%v: the world with lanes differs from the sequential one without "+
				"(elapsed %v vs %v, dispatched %d vs %d)", sharded, got.elapsed, want.elapsed, got.dispatched, want.dispatched)
		}
		used := 0
		for _, l := range w.lanes {
			if l != nil && l.q.buf != nil {
				used++
			}
		}
		if sharded && used != 0 {
			t.Errorf("%d lanes queued events on a sharded engine", used)
		}
		if !sharded && used == 0 {
			t.Error("no lane queued anything on the plain engine: the test exercises nothing")
		}
	}
}

// BenchmarkEngineDeepQueue is the dispatch rung at the depth a saturated WAN
// produces: 16 k arrivals pending on 12 FIFO pipes while 60 processes poll
// every 200 µs, each arrival scheduling the next one on its pipe behind the
// queue. "at" keeps every arrival in the engine queue; "lane" keeps 12.
func BenchmarkEngineDeepQueue(b *testing.B) {
	const pipes, depth, pollers = 12, 16384, 60
	const gap = time.Microsecond
	for _, lanes := range []bool{false, true} {
		name := "at"
		if lanes {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEngine()
			defer e.Shutdown()
			done := false
			for i := 0; i < pollers; i++ {
				e.Go("poller", func(p *Proc) {
					for !done {
						p.Sleep(200 * time.Microsecond)
					}
				})
			}
			var ls [pipes]*Lane[func()]
			var tail [pipes]time.Duration
			var arrive [pipes]func()
			sched := func(k int) {
				if lanes {
					ls[k].At(tail[k], arrive[k])
				} else {
					e.At(tail[k], arrive[k])
				}
			}
			left := b.N
			for k := range arrive {
				ls[k] = newCallLane(e, e)
				arrive[k] = func() {
					if left--; left <= 0 {
						done = true
						return
					}
					tail[k] += pipes * gap
					sched(k)
				}
			}
			for i := 0; i < depth; i++ {
				tail[i%pipes] = time.Duration(i+1) * gap
				sched(i % pipes)
			}
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEngineFanout is the dispatch rung at the shape of framed unpack:
// every 200 µs a frame's burst of 500–2,000 callbacks lands 100 ns apart,
// while 60 processes poll every 200 µs. One op is one callback.
func BenchmarkEngineFanout(b *testing.B) {
	const pollers, period, gap = 60, 200 * time.Microsecond, 100 * time.Nanosecond
	e := NewEngine()
	done := false
	for i := 0; i < pollers; i++ {
		e.Go("poller", func(p *Proc) {
			for !done {
				p.Sleep(period)
			}
		})
	}
	r := rng.New(7)
	left := b.N // callbacks still to schedule
	unpack := func() {}
	var frame func()
	frame = func() {
		n := min(500+r.Intn(1501), left)
		left -= n
		for i := 1; i <= n; i++ {
			e.At(e.Now()+time.Duration(i)*gap, unpack)
		}
		if done = left == 0; !done {
			e.After(period, frame)
		}
	}
	e.At(0, frame)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
