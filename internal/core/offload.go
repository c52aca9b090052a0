package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Offload evaluates a pure function f(i), 0 ≤ i < n, on the host's idle
// cores while the simulation runs: GOMAXPROCS−1 helper goroutines walk the
// indices in ascending order, and Get(i) returns f(i) — already computed, or
// evaluated inline when no helper has claimed it yet. Each index is claimed
// by one compare-and-swap and evaluated exactly once, so which goroutine
// evaluated it never shows: the engine stays sequential, and every virtual
// cost a process charges from f(i) is the same as if it had called f(i)
// itself. With GOMAXPROCS 1 there are no helpers and Get is a plain call.
//
// f must be pure: it reads only data fixed for the run (or for the batch,
// see Refill) and returns its result; it may be called from any goroutine.
//
// Helpers start at the first Get, so a System that is never run starts none,
// and they exit once every index is claimed. System.Run stops them from
// claiming and waits for the ones still evaluating before it returns, also
// when the run ends early.
type Offload[T any] struct {
	helpers int // GOMAXPROCS−1 at construction; 0 makes Get call f directly

	refill  sync.Mutex // serializes Refill
	mu      sync.Mutex // serializes start and waits on done
	done    sync.Cond  // broadcast when an index completes and someone waits
	waiting atomic.Int32
	started atomic.Bool
	stopped atomic.Bool
	running sync.WaitGroup // helpers of the current batch

	batch int
	f     func(int) T
	state []atomic.Uint32 // slotFree, slotBusy or slotReady, per index
	res   []T
	next  atomic.Int64 // the helpers' cursor
}

const (
	slotFree uint32 = iota
	slotBusy
	slotReady
)

// NewOffload registers n evaluations of f with the system, as batch 0.
func NewOffload[T any](s *System, n int, f func(i int) T) *Offload[T] {
	o := &Offload[T]{helpers: runtime.GOMAXPROCS(0) - 1, f: f}
	o.done.L = &o.mu
	if o.helpers > 0 {
		o.state = make([]atomic.Uint32, n)
		o.res = make([]T, n)
	}
	s.offloads = append(s.offloads, o)
	return o
}

// Get returns f(i) of the current batch.
func (o *Offload[T]) Get(i int) T {
	if o.helpers == 0 {
		return o.f(i)
	}
	if !o.started.Load() {
		o.start()
	}
	if o.state[i].Load() != slotReady {
		if o.state[i].CompareAndSwap(slotFree, slotBusy) {
			o.eval(i)
		} else {
			// A helper is evaluating i: take other unclaimed indices
			// meanwhile, and block only when none is left.
			for o.state[i].Load() != slotReady && o.claim() {
			}
			o.wait(i)
		}
	}
	return o.res[i]
}

// Refill starts a new batch evaluating f. Every index of the previous batch
// must have been read by Get, and every Get of the new batch must follow a
// Refill naming it; the caller's own synchronization (an allreduce, say)
// guarantees both. Concurrent callers naming the same batch refill once: the
// first replaces f, the others return at once.
func (o *Offload[T]) Refill(batch int, f func(i int) T) {
	o.refill.Lock()
	defer o.refill.Unlock()
	if batch == o.batch {
		return
	}
	// The consumed batch leaves its helpers nothing to claim.
	o.running.Wait()
	for i := range o.state {
		if o.state[i].Load() != slotReady {
			panic("core: Offload refilled before its batch was consumed")
		}
		o.state[i].Store(slotFree)
	}
	o.batch, o.f = batch, f
	o.next.Store(0)
	o.started.Store(false)
}

// start launches the batch's helpers once.
func (o *Offload[T]) start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started.Load() || o.stopped.Load() {
		return
	}
	o.started.Store(true)
	for h := 0; h < o.helpers; h++ {
		o.running.Add(1)
		go func() {
			defer o.running.Done()
			for o.claim() {
			}
		}()
	}
}

// claim evaluates the lowest index no one has claimed, and reports false
// once none is left or the offload is stopped.
func (o *Offload[T]) claim() bool {
	for !o.stopped.Load() {
		i := int(o.next.Add(1) - 1)
		if i >= len(o.state) {
			return false
		}
		if o.state[i].CompareAndSwap(slotFree, slotBusy) {
			o.eval(i)
			return true
		}
	}
	return false
}

func (o *Offload[T]) eval(i int) {
	o.res[i] = o.f(i)
	o.state[i].Store(slotReady)
	if o.waiting.Load() > 0 {
		o.mu.Lock()
		o.done.Broadcast()
		o.mu.Unlock()
	}
}

// wait blocks until index i is ready.
func (o *Offload[T]) wait(i int) {
	o.mu.Lock()
	o.waiting.Add(1)
	for o.state[i].Load() != slotReady {
		o.done.Wait()
	}
	o.waiting.Add(-1)
	o.mu.Unlock()
}

// stop makes helpers claim nothing more and waits for those still
// evaluating.
func (o *Offload[T]) stop() {
	o.stopped.Store(true)
	o.running.Wait()
}
