package sim

import (
	"reflect"
	"testing"
	"time"

	"albatross/internal/rng"
)

// The idle rule lets a consumer that polls a mailbox every tick sit out an
// empty stretch as one parked wait and still take each value at the instant
// its polling self would have: one tick of Sleep as before, then Mailbox.Wait,
// then a sleep to the next whole tick counted from the start of the stretch.
// The contract is differential, like the lane's: pollReference is the loop the
// rule replaces, pollParked the rule, and on any schedule of arrivals both
// must log the same (value, virtual time) sequence and leave the same clock.
//
// Arrivals are scheduled before the run, so one that lands exactly on a poll
// instant precedes the poll there in (time, seq) order and the reference sees
// it at that tick — which is also what the rule computes: an arrival on a
// tick instant is seen at that tick.

const idleTick = 200 * time.Microsecond

// arrival is one Put at time at (the value is the arrival's index in the
// schedule); taking it costs the consumer cost of Compute.
type arrival struct {
	at, cost time.Duration
}

// taken is one log entry: which arrival, and when the consumer took it.
type taken struct {
	value int
	at    time.Duration
}

func pollReference(p *Proc, mb *Mailbox) int {
	for {
		if v, ok := mb.TryGet(); ok {
			return v.(int)
		}
		p.Sleep(idleTick)
	}
}

func pollParked(p *Proc, mb *Mailbox) int {
	v, ok := mb.TryGet()
	if !ok {
		t0 := p.Now()
		p.Sleep(idleTick)
		mb.Wait(p)
		if late := (p.Now() - t0) % idleTick; late > 0 {
			p.Sleep(idleTick - late)
		}
		v, _ = mb.TryGet()
	}
	return v.(int)
}

// runPoller consumes the schedule with the given poll function and returns
// the log, the end clock and the engine (for its counters).
func runPoller(t *testing.T, sched []arrival, poll func(*Proc, *Mailbox) int) ([]taken, time.Duration, *Engine) {
	t.Helper()
	e := NewEngine()
	mb := NewMailbox(e, "in")
	var log []taken
	e.Go("consumer", func(p *Proc) {
		for range sched {
			v := poll(p, mb)
			log = append(log, taken{v, p.Now()})
			p.Compute(sched[v].cost)
		}
	})
	for i, a := range sched {
		e.At(a.at, func() { mb.Put(i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("schedule %v: %v", sched, err)
	}
	return log, e.Now(), e
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
	} {
		ref, refEnd, _ := runPoller(t, tc.sched, pollReference)
		got, gotEnd, _ := runPoller(t, tc.sched, pollParked)
		if !reflect.DeepEqual(ref, tc.want) {
			t.Errorf("%s: the reference poller logged %v, want %v", tc.name, ref, tc.want)
		}
		if !reflect.DeepEqual(got, ref) || gotEnd != refEnd {
			t.Errorf("%s: parked poller logged %v ending at %v, the reference %v ending at %v",
				tc.name, got, gotEnd, ref, refEnd)
		}
	}
}

// TestIdleRuleRandomSchedules holds the two pollers equal over a few thousand
// generated schedules. Half of them keep every time on a 50 µs grid, where
// arrivals on poll instants and arrivals at the end of a compute are common.
func TestIdleRuleRandomSchedules(t *testing.T) {
	r := rng.New(23)
	for i := 0; i < 3000; i++ {
		grain := time.Nanosecond
		if i%2 == 0 {
			grain = 50 * time.Microsecond
		}
		draw := func(max time.Duration) time.Duration {
			return time.Duration(r.Intn(int(max/grain)+1)) * grain
		}
		sched := make([]arrival, 1+r.Intn(20))
		var at time.Duration
		for j := range sched {
			switch r.Intn(4) {
			case 0: // same instant as the previous one: a burst
			case 1:
				at += draw(idleTick)
			case 2:
				at += draw(4 * idleTick)
			case 3:
				at += draw(50 * idleTick)
			}
			sched[j].at = at
			if r.Intn(3) > 0 {
				sched[j].cost = draw(3 * idleTick)
			}
		}
		ref, refEnd, _ := runPoller(t, sched, pollReference)
		got, gotEnd, _ := runPoller(t, sched, pollParked)
		if !reflect.DeepEqual(got, ref) || gotEnd != refEnd {
			t.Fatalf("schedule %d %v: parked poller logged %v ending at %v, the reference %v ending at %v",
				i, sched, got, gotEnd, ref, refEnd)
		}
	}
}

// TestIdleRuleEventsPerStretch: however long the gap, a parked idle stretch
// schedules at most three events (the first tick, the wake, the alignment),
// where the polling loop schedules one per tick.
func TestIdleRuleEventsPerStretch(t *testing.T) {
	for _, gap := range []time.Duration{us(1), us(250), us(2000), time.Second, time.Hour + 1} {
		sched := []arrival{{gap, 0}}
		if gap <= time.Second {
			_, _, ref := runPoller(t, sched, pollReference)
			if c, polls := ref.Census(), uint64((gap+idleTick-1)/idleTick); c.Sleep != polls {
				t.Errorf("gap %v: the reference poller slept %d times, want %d", gap, c.Sleep, polls)
			}
		}
		_, _, got := runPoller(t, sched, pollParked)
		if c := got.Census(); c.Sleep+c.Wake > 3 {
			t.Errorf("gap %v: the parked poller scheduled %d sleeps and %d wakes for one idle stretch",
				gap, c.Sleep, c.Wake)
		}
	}
}
