package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"albatross/internal/rng"
)

// The idle rule lets a consumer that polls a mailbox every tick sit out an
// empty stretch as one parked Mailbox.Poll and still take each value at the
// instant its polling self would have. The consumer owes the cost of each
// value it takes and pays it before looking for the next; the fold goes one
// step further and pays by charging busy time without an event, starting the
// poll at the instant the payment would have ended. The contract is
// differential, like the lane's: pollReference is the loop both rules replace,
// pollIdle and pollFold the rules, and on any schedule of arrivals all three
// must log the same (value, virtual time) sequence, leave the same clock and
// accrue the same busy time.
//
// Arrivals are scheduled before the run, so one that lands exactly on a poll
// instant precedes the poll there in (time, seq) order and the reference sees
// it at that tick — which is also what Poll computes: an arrival on a grid
// instant is seen at that instant.

const idleTick = 200 * time.Microsecond

// arrival is one Put at time at (the value is the arrival's index in the
// schedule); taking it leaves the consumer owing cost.
type arrival struct {
	at, cost time.Duration
}

// taken is one log entry: which arrival, and when the consumer took it.
type taken struct {
	value int
	at    time.Duration
}

// pollReference pays what it owes, then looks once per tick.
func pollReference(p *Proc, mb *Mailbox, owed time.Duration) int {
	if owed > 0 {
		p.Compute(owed)
	}
	for {
		if v, ok := mb.TryGet(); ok {
			return v.(int)
		}
		p.Sleep(idleTick)
	}
}

// pollIdle pays, looks, and sits out an empty mailbox in one Poll.
func pollIdle(p *Proc, mb *Mailbox, owed time.Duration) int {
	if owed > 0 {
		p.Compute(owed)
	}
	v, ok := mb.TryGet()
	if !ok {
		mb.Poll(p, p.Now()+idleTick, idleTick)
		v, _ = mb.TryGet()
	}
	return v.(int)
}

// pollFold folds the payment into the poll: the look at now+owed is the first
// instant of the poll grid.
func pollFold(p *Proc, mb *Mailbox, owed time.Duration) int {
	if owed == 0 {
		return pollIdle(p, mb, 0)
	}
	p.Charge(owed)
	mb.Poll(p, p.Now()+owed, idleTick)
	v, _ := mb.TryGet()
	return v.(int)
}

// pollRun is what one consumer run leaves behind.
type pollRun struct {
	log    []taken
	end    time.Duration
	busy   time.Duration
	census Census
}

// runPoller consumes the schedule with the given poll function, owing settle
// before its first look.
func runPoller(t testing.TB, sched []arrival, settle time.Duration, poll func(*Proc, *Mailbox, time.Duration) int) pollRun {
	t.Helper()
	e := NewEngine()
	mb := NewMailbox(e, "in")
	var run pollRun
	c := e.Go("consumer", func(p *Proc) {
		owed := settle
		for range sched {
			v := poll(p, mb, owed)
			run.log = append(run.log, taken{v, p.Now()})
			owed = sched[v].cost
		}
		p.Compute(owed)
	})
	for i, a := range sched {
		e.At(a.at, func() { mb.Put(i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("schedule %v: %v", sched, err)
	}
	run.end, run.busy, run.census = e.Now(), c.BusyTime(), e.Census()
	return run
}

// checkIdleRule holds both rules to the reference on one schedule.
func checkIdleRule(t testing.TB, sched []arrival, settle time.Duration) pollRun {
	t.Helper()
	ref := runPoller(t, sched, settle, pollReference)
	for _, v := range []struct {
		name string
		poll func(*Proc, *Mailbox, time.Duration) int
	}{{"idle", pollIdle}, {"fold", pollFold}} {
		got := runPoller(t, sched, settle, v.poll)
		if !reflect.DeepEqual(got.log, ref.log) || got.end != ref.end || got.busy != ref.busy {
			t.Fatalf("schedule %v, settle %v: the %s poller logged %v ending at %v busy %v; the reference %v ending at %v busy %v",
				sched, settle, v.name, got.log, got.end, got.busy, ref.log, ref.end, ref.busy)
		}
	}
	return ref
}

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestIdleRuleMatchesPolling(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched []arrival
		want  []taken
	}{
		{"before the first tick", []arrival{{us(50), 0}}, []taken{{0, us(200)}}},
		{"at the start of the stretch", []arrival{{0, 0}}, []taken{{0, us(200)}}},
		{"mid-gap", []arrival{{us(1050), 0}}, []taken{{0, us(1200)}}},
		{"on a tick instant", []arrival{{us(600), 0}}, []taken{{0, us(600)}}},
		{"on the first tick", []arrival{{us(200), 0}}, []taken{{0, us(200)}}},
		{"burst", []arrival{{us(450), us(30)}, {us(460), us(30)}, {us(470), us(30)}},
			[]taken{{0, us(600)}, {1, us(630)}, {2, us(660)}}},
		{"during a compute", []arrival{{us(100), us(500)}, {us(300), us(10)}},
			[]taken{{0, us(200)}, {1, us(700)}}},
		// The second stretch starts at 237 µs, so its polls fall at 437, 637, ...
		{"stretch off the tick grid", []arrival{{us(100), us(37)}, {us(500), 0}, {us(1437), 0}},
			[]taken{{0, us(200)}, {1, us(637)}, {2, us(1437)}}},
		{"long gap", []arrival{{time.Second + 1, 0}}, []taken{{0, time.Second + idleTick}}},
		// The settle after the first value runs from 200 to 500 µs.
		{"during the settle", []arrival{{us(100), us(300)}, {us(350), 0}}, []taken{{0, us(200)}, {1, us(500)}}},
		{"at the end of the settle", []arrival{{us(100), us(300)}, {us(500), 0}}, []taken{{0, us(200)}, {1, us(500)}}},
		{"just after the settle", []arrival{{us(100), us(300)}, {us(501), 0}}, []taken{{0, us(200)}, {1, us(700)}}},
		{"on the settle's first tick", []arrival{{us(100), us(300)}, {us(700), 0}}, []taken{{0, us(200)}, {1, us(700)}}},
	} {
		if ref := checkIdleRule(t, tc.sched, 0); !reflect.DeepEqual(ref.log, tc.want) {
			t.Errorf("%s: the reference poller logged %v, want %v", tc.name, ref.log, tc.want)
		}
	}
}

// idleInput decodes a fuzz input into a schedule and an initial settle. The
// first byte is the settle, then each byte pair is one arrival: the gap since
// the previous one (a burst, or up to 310 µs, 1.55 ms or 62 ms) and the cost
// of taking it (0 to 635 µs). Times fall on a 5 µs grid, where arrivals on
// poll instants and at the end of a settle are common; bit 7 of the settle
// adds 1 ns to it, bit 7 of a cost byte 1 ns to the arrival time, and the
// schedule drifts off the grid.
func idleInput(data []byte) ([]arrival, time.Duration) {
	if len(data) == 0 {
		return nil, 0
	}
	settle := time.Duration(data[0]&0x7F)*5*time.Microsecond + time.Duration(data[0]>>7)
	var sched []arrival
	var at time.Duration
	for data = data[1:]; len(data) >= 2; data = data[2:] {
		g, c := data[0], data[1]
		n := time.Duration(g & 0x1F)
		switch g >> 5 {
		case 0, 1: // same instant as the previous one: a burst
		case 2, 3, 4:
			at += n * 10 * time.Microsecond
		case 5, 6:
			at += n * 50 * time.Microsecond
		case 7:
			at += n * 2 * time.Millisecond
		}
		at += time.Duration(c >> 7)
		sched = append(sched, arrival{at, time.Duration(c&0x7F) * 5 * time.Microsecond})
	}
	return sched, settle
}

func FuzzIdleRule(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{0, 0x54, 0},                // one arrival on the first tick
		{40, 0x54, 0, 0x54, 0},      // a 200 µs settle, arrivals at its end and a tick on
		{20, 0x41, 20, 0x4A, 0x80},  // arrivals during the first settle and the second
		{0x81, 0xE3, 0x7F, 0, 0x85}, // off the grid, a long gap, a burst
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 129 {
			t.Skip()
		}
		sched, settle := idleInput(data)
		checkIdleRule(t, sched, settle)
	})
}

// TestIdleRuleRandomSchedules runs the fuzz target's check over 3,000
// generated inputs, so the default suite covers more than the seeds. A third
// keep every gap a burst or under 320 µs, where arrivals during a settle and
// on its first ticks are common.
func TestIdleRuleRandomSchedules(t *testing.T) {
	r := rng.New(23)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 1+2*r.Intn(21))
		for j := range data {
			data[j] = byte(r.Intn(256))
			if i%3 == 0 && j%2 == 1 {
				data[j] &^= 0xA0 // gap class 0 or 2
			}
		}
		sched, settle := idleInput(data)
		checkIdleRule(t, sched, settle)
	}
}

// TestIdleRuleEventsPerStretch: however long the gap, an idle stretch costs
// exactly one event — the resume the filling Put schedules — where the
// polling loop schedules one per tick, and a settle with nothing to do folds
// into the stretch after it.
func TestIdleRuleEventsPerStretch(t *testing.T) {
	for _, gap := range []time.Duration{us(1), us(250), us(2000), time.Second, time.Hour + 1} {
		sched := []arrival{{gap, 0}}
		if gap <= time.Second {
			ref := runPoller(t, sched, 0, pollReference)
			if c, polls := ref.census, uint64((gap+idleTick-1)/idleTick); c.Sleep != polls {
				t.Errorf("gap %v: the reference poller slept %d times, want %d", gap, c.Sleep, polls)
			}
		}
		if c := runPoller(t, sched, 0, pollIdle).census; c.Sleep+c.Wake != 1 {
			t.Errorf("gap %v: the idle poller scheduled %d sleeps and %d wakes for one idle stretch",
				gap, c.Sleep, c.Wake)
		}
		// Two stretches: to the first value at 200 µs, then a 50 µs settle and
		// the gap to the second.
		sched = []arrival{{0, us(50)}, {idleTick + gap, 0}}
		if c := runPoller(t, sched, 0, pollFold).census; c.Sleep+c.Wake != 2 || c.Compute != 1 {
			t.Errorf("gap %v: the folding poller scheduled %d sleeps, %d wakes and %d computes for two stretches",
				gap, c.Sleep, c.Wake, c.Compute)
		}
	}
}

// TestPollPutDuringShutdownIsInert: a Put from a deferred function while
// Shutdown unwinds finds a process parked in Poll and must neither schedule
// its resume nor panic.
func TestPollPutDuringShutdownIsInert(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "in")
	e.Go("putter", func(p *Proc) {
		p.SetDaemon(true)
		defer mb.Put(1)
		NewFuture(e, "never").Await(p)
	})
	returned := false
	e.Go("poller", func(p *Proc) {
		p.SetDaemon(true)
		mb.Poll(p, idleTick, idleTick)
		returned = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	before := e.Census()
	e.Shutdown()
	if returned || e.Live() != 0 || mb.Len() != 1 || e.Census() != before {
		t.Fatalf("after Shutdown: Poll returned %v, %d live, %d queued, census %+v; want false, 0, 1, %+v",
			returned, e.Live(), mb.Len(), e.Census(), before)
	}
}

// TestPollDeadlineNamesPendingResume: a Put ahead of the poll grid leaves the
// resume pending in the queue, and a deadline that falls before it reports the
// process as on a sleep.
func TestPollDeadlineNamesPendingResume(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "in")
	e.Go("poller", func(p *Proc) { mb.Poll(p, time.Second, time.Second) })
	e.At(time.Millisecond, func() { mb.Put(1) })
	e.SetDeadline(500 * time.Millisecond)
	err := e.Run()
	defer e.Shutdown()
	var dl *DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want a *DeadlineError", err)
	}
	if dl.Next != time.Second || !reflect.DeepEqual(dl.Parked, []string{"poller on sleep"}) {
		t.Fatalf("deadline report %v, want the next event at 1s and the poller on sleep", dl)
	}
}

// TestPollShardedMatchesSequential: on two LPs, pollers whose mailboxes are
// filled by local and cross-LP callbacks resume at the same instants, in the
// same order, as on the sequential engine.
func TestPollShardedMatchesSequential(t *testing.T) {
	type result struct {
		logs    [2][]taken
		end     time.Duration
		census  Census
		busy    [2]time.Duration
		dispats uint64
	}
	run := func(sharded bool) result {
		var res result
		root := NewEngine()
		engs := []*Engine{root, root}
		if sharded {
			engs = root.Shard(2)
			root.SetLookahead(worldLookahead)
		}
		const n = 60
		var boxes [2]*Mailbox
		var pollers [2]*Proc
		for c := range engs {
			boxes[c] = NewMailbox(engs[c], "in")
		}
		for c, e := range engs {
			r := rng.New(uint64(31 + c))
			e.Go("producer", func(p *Proc) {
				for k := 0; k < n; k++ {
					p.Compute(time.Duration(r.Intn(8)) * 50 * time.Microsecond)
					e.At(p.Now()+time.Duration(r.Intn(3))*50*time.Microsecond, func() { boxes[c].Put(k) })
					e.AtShard(engs[1-c], p.Now()+worldLookahead, func() { boxes[1-c].Put(k) })
				}
			})
			pollers[c] = e.Go("poller", func(p *Proc) {
				var owed time.Duration
				for k := 0; k < 2*n; k++ {
					v := pollFold(p, boxes[c], owed)
					res.logs[c] = append(res.logs[c], taken{v, p.Now()})
					owed = time.Duration(v%4) * 50 * time.Microsecond
				}
			})
		}
		if err := root.Run(); err != nil {
			t.Fatalf("sharded=%v: %v", sharded, err)
		}
		res.end, res.census, res.dispats = root.Now(), root.Census(), root.Dispatched()
		for c := range pollers {
			res.busy[c] = pollers[c].BusyTime()
		}
		root.Shutdown()
		return res
	}
	seq, shd := run(false), run(true)
	if !reflect.DeepEqual(seq, shd) {
		t.Fatalf("sharded run differs from the sequential one:\nsequential %+v\nsharded    %+v", seq, shd)
	}
	if seq.census.Wake == 0 {
		t.Fatal("no poll resume counted: the test exercises nothing")
	}
}
