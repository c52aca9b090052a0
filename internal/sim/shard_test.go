package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// shardWorld is a synthetic multi-cluster workload that can run on one plain
// engine or on a sharded root, with identical logical behaviour: nodes
// compute in lockstep and exchange messages around a cross-cluster ring,
// plus an all-to-one hot spot that lands many same-instant deliveries on one
// LP — the tie-break case the replay merge must order exactly like the
// sequential engine.
type shardWorld struct {
	root  *Engine
	engs  []*Engine // per cluster (all the same engine when unsharded)
	L     time.Duration
	perC  int
	boxes []*Mailbox
	logs  [][][2]int64 // per node: (virtual ns, payload) at delivery, in order
	procs []*Proc
	lanes []*Lane[func()] // non-nil: cross-cluster posts go through one lane per directed cluster pair
}

const worldLookahead = 500 * time.Microsecond

func buildWorld(t testing.TB, clusters, perC, iters int, sharded bool) *shardWorld {
	t.Helper()
	w := &shardWorld{L: worldLookahead, perC: perC}
	if sharded {
		w.root = NewEngine()
		w.engs = w.root.Shard(clusters)
		w.root.SetLookahead(w.L)
	} else {
		e := NewEngine()
		w.root = e
		w.engs = make([]*Engine, clusters)
		for c := range w.engs {
			w.engs[c] = e
		}
	}
	n := clusters * perC
	w.boxes = make([]*Mailbox, n)
	w.logs = make([][][2]int64, n)
	w.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		w.boxes[i] = NewMailbox(w.engs[i/perC], fmt.Sprintf("box-%d", i))
	}
	for i := 0; i < n; i++ {
		i := i
		eng := w.engs[i/perC]
		recv := iters // from the ring predecessor
		if i == 0 {
			recv += n * iters // hot-spot deliveries
		}
		w.procs[i] = eng.Go(fmt.Sprintf("node-%d", i), func(p *Proc) {
			for k := 0; k < iters; k++ {
				p.Compute(200 * time.Microsecond)
				at := p.Now() + w.L
				// Cross-cluster ring successor.
				dst := (i + perC) % n
				w.post(eng, i/perC, dst, at, int64(i)<<32|int64(k))
				// Hot spot: everyone also hits node 0 at the same instant.
				w.post(eng, i/perC, 0, at, int64(i)<<32|int64(k)|1<<62)
			}
			for k := 0; k < recv; k++ {
				w.boxes[i].Get(p)
			}
		})
	}
	return w
}

// post delivers payload into dst's box at time at, logging the delivery.
// Same-cluster sends schedule locally; cross-cluster sends go through
// AtShard, which on a plain engine is exactly At.
func (w *shardWorld) post(src *Engine, srcC, dst int, at time.Duration, payload int64) {
	dstEng := w.engs[dst/w.perC]
	fn := func() {
		w.logs[dst] = append(w.logs[dst], [2]int64{int64(dstEng.Now()), payload})
		w.boxes[dst].Put(payload)
	}
	if dst/w.perC == srcC {
		dstEng.At(at, fn)
		return
	}
	if w.lanes == nil {
		src.AtShard(dstEng, at, fn)
		return
	}
	// Slot (srcC, dstC) is touched by srcC's LP alone, and a cluster's posts
	// are made at its clock plus L, so each pair's times never decrease.
	k := srcC*len(w.engs) + dst/w.perC
	if w.lanes[k] == nil {
		w.lanes[k] = newCallLane(src, dstEng)
	}
	w.lanes[k].At(at, fn)
}

type worldResult struct {
	err        error
	elapsed    time.Duration
	dispatched uint64
	busy       []time.Duration
	logs       [][][2]int64
}

func (w *shardWorld) run() worldResult {
	err := w.root.Run()
	res := worldResult{
		err:        err,
		elapsed:    w.root.Now(),
		dispatched: w.root.Dispatched(),
		logs:       w.logs,
	}
	for _, p := range w.procs {
		res.busy = append(res.busy, p.BusyTime())
	}
	w.root.Shutdown()
	return res
}

// TestShardedMatchesSequential is the core equivalence check: the sharded
// engine must produce the identical elapsed time, dispatched-event count,
// per-proc busy time and per-node delivery order as the sequential engine.
func TestShardedMatchesSequential(t *testing.T) {
	seq := buildWorld(t, 4, 3, 40, false).run()
	shd := buildWorld(t, 4, 3, 40, true).run()
	if seq.err != nil || shd.err != nil {
		t.Fatalf("run errors: seq=%v shd=%v", seq.err, shd.err)
	}
	if seq.elapsed != shd.elapsed {
		t.Errorf("elapsed: sequential %v, sharded %v", seq.elapsed, shd.elapsed)
	}
	if seq.dispatched != shd.dispatched {
		t.Errorf("dispatched: sequential %d, sharded %d", seq.dispatched, shd.dispatched)
	}
	if !reflect.DeepEqual(seq.busy, shd.busy) {
		t.Errorf("per-proc busy times differ")
	}
	for i := range seq.logs {
		if !reflect.DeepEqual(seq.logs[i], shd.logs[i]) {
			t.Fatalf("node %d delivery log differs:\nsequential %v\nsharded    %v",
				i, seq.logs[i], shd.logs[i])
		}
	}
}

// TestShardedDeterminism reruns the sharded world and demands identical
// results every time, whatever the OS thread interleaving did.
func TestShardedDeterminism(t *testing.T) {
	first := buildWorld(t, 3, 2, 25, true).run()
	if first.err != nil {
		t.Fatal(first.err)
	}
	for rep := 1; rep < 3; rep++ {
		again := buildWorld(t, 3, 2, 25, true).run()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("rep %d differs from first run", rep)
		}
	}
}

// TestShardedDeadlockParity: a workload that stalls must report the same
// deadlock (time, parked procs, dispatched count) from both engines.
func deadlockWorld(t *testing.T, sharded bool) *shardWorld {
	w := buildWorld(t, 2, 2, 3, sharded)
	// One extra proc that waits forever on a box nobody fills.
	orphan := NewMailbox(w.engs[1], "orphan")
	w.engs[1].Go("stuck", func(p *Proc) {
		orphan.Get(p)
	})
	return w
}

func TestShardedDeadlockParity(t *testing.T) {
	seq := deadlockWorld(t, false).run()
	shd := deadlockWorld(t, true).run()
	var de1, de2 *DeadlockError
	if !errors.As(seq.err, &de1) || !errors.As(shd.err, &de2) {
		t.Fatalf("expected deadlocks, got seq=%v shd=%v", seq.err, shd.err)
	}
	if de1.Time != de2.Time || de1.Dispatched != de2.Dispatched || de1.Live != de2.Live ||
		!reflect.DeepEqual(de1.Parked, de2.Parked) {
		t.Fatalf("deadlock reports differ:\nsequential %v\nsharded    %v", de1, de2)
	}
}

// TestShardedDeadlineParity: aborting at a virtual deadline must report the
// same next-event time and dispatched count as the sequential engine.
func TestShardedDeadlineParity(t *testing.T) {
	const dl = 3 * time.Millisecond
	seqW := buildWorld(t, 2, 2, 50, false)
	seqW.root.SetDeadline(dl)
	shdW := buildWorld(t, 2, 2, 50, true)
	shdW.root.SetDeadline(dl)
	seq := seqW.run()
	shd := shdW.run()
	var de1, de2 *DeadlineError
	if !errors.As(seq.err, &de1) || !errors.As(shd.err, &de2) {
		t.Fatalf("expected deadline errors, got seq=%v shd=%v", seq.err, shd.err)
	}
	if de1.Next != de2.Next || de1.Dispatched != de2.Dispatched || de1.Live != de2.Live ||
		!reflect.DeepEqual(de1.Parked, de2.Parked) {
		t.Fatalf("deadline reports differ:\nsequential %v\nsharded    %v", de1, de2)
	}
}

// TestShardedLookaheadViolation: a cross-LP event inside the current window
// must be caught at the fence, not silently corrupt the order.
func TestShardedLookaheadViolation(t *testing.T) {
	root := NewEngine()
	sh := root.Shard(2)
	root.SetLookahead(time.Millisecond)
	sh[0].At(0, func() {
		sh[0].AtShard(sh[1], 10*time.Microsecond, func() {}) // far below lookahead
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	_ = root.Run()
}

// TestShardedStopAndShutdownLeak mirrors the sequential leak tests: a sharded
// run stopped by its deadline, or abandoned at a deadlock, must release every
// goroutine (procs and runner threads) at Shutdown.
func TestShardedStopAndShutdownLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	w := buildWorld(t, 3, 2, 1000, true)
	w.root.SetDeadline(2 * time.Millisecond)
	if err := w.root.Run(); !errors.As(err, new(*DeadlineError)) {
		t.Fatalf("Run() = %v, want a DeadlineError", err)
	}
	w.root.Shutdown()
	w.root.Shutdown() // idempotent
	deadlineW := deadlockWorld(t, true)
	_ = deadlineW.run() // deadlock path + Shutdown inside run()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
}

// TestShardMisuse checks the loud failure modes of the sharding API.
func TestShardMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	root := NewEngine()
	root.Shard(2)
	mustPanic("root At", func() { root.At(0, func() {}) })
	mustPanic("root Go", func() { root.Go("x", func(*Proc) {}) })
	mustPanic("double shard", func() { root.Shard(2) })
	mustPanic("run without lookahead", func() { _ = root.Run() })
	used := NewEngine()
	used.At(0, func() {})
	mustPanic("shard after scheduling", func() { used.Shard(2) })
}
