package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"albatross/internal/rng"
)

// The chain contract is differential: a process that runs Ahead(d, act) and
// syncs before it observes must leave exactly what the same process running
// Compute(d); act() leaves — the same events in the same order at the same
// instants, the same clock at every step, busy time, census, error and live
// count — and must never be switched into more often. chainRun plays one
// seeded program of one to three processes either way.
type chainRun struct {
	Log        []string          // actions and callbacks, each with its clock
	Clock      [][]time.Duration // per process, its clock after each step
	Busy       []time.Duration
	Census     Census
	Dispatched uint64
	Live       int
	Err        string
	resumes    uint64
	longest    int // most chained steps in a row in any process
}

func chainProgram(seed uint64, chained bool) chainRun {
	r := rng.New(seed)
	e := NewEngine()
	var out chainRun
	nproc := 1 + r.Intn(3)
	out.Clock = make([][]time.Duration, nproc)
	for i := range out.Clock {
		out.Clock[i] = []time.Duration{}
	}
	mbs := make([]*Mailbox, nproc)
	for i := range mbs {
		mbs[i] = NewMailbox(e, fmt.Sprint("mb", i))
	}
	futs := []*Future{NewFuture(e, "f0"), NewFuture(e, "f1")}
	if r.Intn(3) == 0 {
		e.SetDeadline(time.Duration(1+r.Intn(400)) * time.Microsecond)
	}
	logf := func(format string, a ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, a...))
	}
	// act is a chained step's action, run from the process (Compute) or from
	// the event that ends the Compute (Ahead); arg packs kind and target.
	act := func(arg any) {
		k := arg.(int)
		switch kind, tgt := k%8, k/8; kind {
		case 0, 1:
			logf("act %d", k)
		case 2, 3:
			logf("put %d", tgt)
			mbs[tgt%nproc].Put(k)
		case 4:
			at := e.Now() + time.Duration(tgt)*time.Microsecond
			e.At(at, func() { logf("callback %d", k) })
		case 5:
			if f := futs[tgt%2]; !f.Done() {
				logf("set %d", tgt%2)
				f.Set(k)
			}
		case 6:
			logf("after %d", k)
			e.After(0, func() { logf("due %d", k) })
		}
	}
	for i := 0; i < nproc; i++ {
		steps := 10 + r.Intn(80)
		heavy := r.Intn(4) == 0 // nearly all chained: chains beyond 32 links
		prog := make([][3]int, steps)
		run := 0
		for j := range prog {
			op := r.Intn(12)
			if heavy && r.Intn(40) != 0 {
				op = r.Intn(6)
			}
			if run = run + 1; op > 5 {
				run = 0
			}
			out.longest = max(out.longest, run)
			prog[j] = [3]int{op, r.Intn(30), r.Intn(8 * 8)}
		}
		e.Go(fmt.Sprint("p", i), func(p *Proc) {
			for j, st := range prog {
				d := time.Duration(st[1]) * time.Microsecond
				switch st[0] {
				case 0, 1, 2, 3, 4, 5:
					if chained {
						p.Ahead(d, act, st[2])
					} else {
						p.Compute(d)
						act(st[2])
					}
				case 6:
					p.Sleep(d)
				case 7:
					p.Compute(d)
				case 8:
					mbs[i].Poll(p, p.Now()+d, 5*time.Microsecond)
					mbs[i].TryGet()
				case 9:
					if chained {
						p.Sync()
					}
					if v, ok := mbs[i].TryGet(); ok {
						logf("p%d took %v", i, v)
					}
					mbs[(i+1)%nproc].Put(-j)
				case 10:
					if st[2]%4 == 0 {
						logf("p%d got %v", i, mbs[i].Get(p))
					}
				case 11:
					logf("p%d awaited %v", i, futs[st[2]%2].Await(p))
				}
				out.Clock[i] = append(out.Clock[i], p.Now())
			}
		})
	}
	err := e.Run()
	if err != nil {
		out.Err = err.Error()
	}
	out.Live = e.Live()
	e.Shutdown()
	for _, p := range e.Procs() {
		out.Busy = append(out.Busy, p.BusyTime())
	}
	out.Census, out.Dispatched, out.resumes = e.Census(), e.Dispatched(), e.Resumes()
	return out
}

func TestAheadMatchesCompute(t *testing.T) {
	var plainResumes, chainResumes uint64
	deadlines, longest := 0, 0
	for seed := uint64(1); seed <= 600; seed++ {
		plain := chainProgram(seed, false)
		chain := chainProgram(seed, true)
		if chain.resumes > plain.resumes {
			t.Fatalf("seed %d: chains resumed %d times, Compute %d", seed, chain.resumes, plain.resumes)
		}
		longest = max(longest, plain.longest)
		plainResumes += plain.resumes
		chainResumes += chain.resumes
		if strings.Contains(plain.Err, "deadline") {
			deadlines++
		}
		// A chaining process runs its own code ahead of the chain, so a run
		// cut short has seen more of its steps; those it shares match.
		clock := chain.Clock
		if plain.Err != "" {
			clock = make([][]time.Duration, len(chain.Clock))
			for i, c := range chain.Clock {
				clock[i] = c[:min(len(c), len(plain.Clock[i]))]
			}
		}
		if !reflect.DeepEqual(plain, chainRun{
			Log: chain.Log, Clock: clock, Busy: chain.Busy, Census: chain.Census,
			Dispatched: chain.Dispatched, Live: chain.Live, Err: chain.Err, resumes: plain.resumes,
			longest: plain.longest,
		}) {
			for i := 0; i < min(len(plain.Log), len(chain.Log)); i++ {
				if plain.Log[i] != chain.Log[i] {
					t.Fatalf("seed %d: log entry %d: Compute %q, Ahead %q", seed, i, plain.Log[i], chain.Log[i])
				}
			}
			t.Fatalf("seed %d: Compute and Ahead differ:\n%+v\n%+v", seed, plain, chain)
		}
	}
	if deadlines == 0 || longest <= maxLinks || chainResumes >= plainResumes {
		t.Fatalf("programs exercise too little: %d deadlines, longest run of links %d, "+
			"resumes %d chained vs %d", deadlines, longest, chainResumes, plainResumes)
	}
	t.Logf("resumes: %d with Compute, %d chained; %d past a deadline, longest run of links %d",
		plainResumes, chainResumes, deadlines, longest)
}

// TestAheadLongChainSyncs: a chain holds 32 links; the 33rd Ahead syncs first,
// and the process is resumed once per full chain, not once per link.
func TestAheadLongChainSyncs(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	e.Go("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Ahead(time.Microsecond, func(any) { at = append(at, e.Now()) }, nil)
		}
		if p.Now() != 100*time.Microsecond {
			t.Errorf("clock at the chain's end %v, want 100µs", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 100 || at[99] != 100*time.Microsecond || e.Now() != 100*time.Microsecond {
		t.Fatalf("%d actions, last at %v, clock %v", len(at), at[len(at)-1], e.Now())
	}
	if c := e.Census(); c.Compute != 100 || e.Dispatched() != 101 {
		t.Fatalf("census %+v, %d dispatched; want 100 computes, 101 events", c, e.Dispatched())
	}
	// Start, then one resume at the end of each chain: links 32, 64, 96, 100.
	if got := e.Resumes(); got != 5 {
		t.Fatalf("%d resumes, want 5", got)
	}
}

// TestAheadMisusePanics: a process that schedules anything itself while it
// holds chained links would run it before links that precede it; the engine
// panics instead of reordering.
func TestAheadMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(p *Proc, l *Lane[func()], mb *Mailbox){
		"At":      func(p *Proc, _ *Lane[func()], _ *Mailbox) { p.Engine().At(0, func() {}) },
		"Put":     func(_ *Proc, _ *Lane[func()], mb *Mailbox) { mb.Put(1) },
		"Lane.At": func(_ *Proc, l *Lane[func()], _ *Mailbox) { l.At(time.Second, func() {}) },
	} {
		e := NewEngine()
		l := newCallLane(e, e)
		mb := NewMailbox(e, "m")
		e.Go("waiter", func(p *Proc) { mb.Get(p) }) // parked by the time p runs
		e.Go("p", func(p *Proc) {
			p.Ahead(time.Microsecond, func(any) {}, nil)
			misuse(p, l, mb)
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if s := fmt.Sprint(got); !strings.Contains(s, "chained links pending") {
			t.Errorf("%s with a pending link: recovered %v, want the chain misuse panic", name, got)
		}
		e.Shutdown()
	}
}
