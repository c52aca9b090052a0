package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"albatross/internal/rng"
	"albatross/internal/sim"
)

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// counted is a pure function of i that records how often each index was
// evaluated, how many evaluations began and how many ended. Every 97th index
// is fifty times slower, so Gets meet indices a helper is still evaluating.
type counted struct {
	calls      []atomic.Int32
	began, end atomic.Int64
	rounds     int
}

func newCounted(n, rounds int) *counted {
	return &counted{calls: make([]atomic.Int32, n), rounds: rounds}
}

// want is f(i): a chain of hashes whose length depends on i.
func (c *counted) want(i int) uint64 {
	rounds := c.rounds
	if i%97 == 0 {
		rounds *= 50
	}
	v := uint64(i)
	for r := 0; r <= rounds; r++ {
		v = rng.Hash64(v)
	}
	return v
}

func (c *counted) f(i int) uint64 {
	c.began.Add(1)
	c.calls[i].Add(1)
	v := c.want(i)
	c.end.Add(1)
	return v
}

func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count stuck at %d, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOffloadConcurrentGetsEvaluateOnce: four goroutines read every index,
// in four different orders, while the helpers run; each index is evaluated
// exactly once and every Get returns f(i).
func TestOffloadConcurrentGetsEvaluateOnce(t *testing.T) {
	withProcs(t, 4)
	const n = 3000
	c := newCounted(n, 20)
	sys := NewDAS(1, 1)
	o := NewOffload(sys, n, c.f)
	perm, r := make([]int, n), rng.New(3)
	for i := range perm {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], i
	}
	orders := []func(k int) int{
		func(k int) int { return k },
		func(k int) int { return n - 1 - k },
		func(k int) int { return (k * 7) % n },
		func(k int) int { return perm[k] },
	}
	var wg sync.WaitGroup
	for g, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := order(k)
				if got := o.Get(i); got != c.want(i) {
					t.Errorf("reader %d: Get(%d) = %d, want %d", g, i, got, c.want(i))
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range c.calls {
		if k := c.calls[i].Load(); k != 1 {
			t.Fatalf("f(%d) ran %d times, want once", i, k)
		}
	}
}

// TestOffloadSingleCoreStartsNothing: at GOMAXPROCS 1 Get is a plain call of
// f on the caller's goroutine.
func TestOffloadSingleCoreStartsNothing(t *testing.T) {
	withProcs(t, 1)
	const n = 500
	c := newCounted(n, 1)
	sys := NewDAS(1, 1)
	o := NewOffload(sys, n, c.f)
	base := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		if got := o.Get(i); got != c.want(i) {
			t.Fatalf("Get(%d) = %d, want %d", i, got, c.want(i))
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("goroutines %d after Get(%d), want %d", g, i, base)
		}
	}
	if o.helpers != 0 || o.state != nil {
		t.Fatalf("helpers %d, state %d slots: want none at GOMAXPROCS 1", o.helpers, len(o.state))
	}
}

// TestOffloadNeverRunStartsNothing: helpers start at the first Get, not at
// construction.
func TestOffloadNeverRunStartsNothing(t *testing.T) {
	withProcs(t, 4)
	base := runtime.NumGoroutine()
	c := newCounted(100, 1)
	NewOffload(NewDAS(1, 1), 100, c.f)
	if g := runtime.NumGoroutine(); g > base || c.began.Load() != 0 {
		t.Fatalf("goroutines %d (want %d), %d evaluations before any Get", g, base, c.began.Load())
	}
}

// TestOffloadStopsWithRun: a run cut short by its deadline, with most
// indices unclaimed, returns only after the helpers stopped — none is still
// evaluating, none evaluates afterwards, and their goroutines exit.
func TestOffloadStopsWithRun(t *testing.T) {
	withProcs(t, 4)
	base := runtime.NumGoroutine()
	const n = 1 << 20
	c := newCounted(n, 200)
	sys := NewDAS(1, 2)
	o := NewOffload(sys, n, c.f)
	sys.SpawnWorkers("w", func(w *Worker) {
		for i := w.Rank(); ; i += 2 {
			o.Get(i)
			w.Compute(time.Millisecond)
		}
	})
	sys.Engine.SetDeadline(10 * time.Millisecond)
	_, err := sys.Run()
	if _, ok := err.(*sim.DeadlineError); !ok {
		t.Fatalf("Run: %v, want a deadline error", err)
	}
	began, ended := c.began.Load(), c.end.Load()
	if began != ended {
		t.Fatalf("Run returned with %d evaluations in flight", began-ended)
	}
	if began >= n {
		t.Fatalf("all %d indices evaluated: the deadline left none unclaimed", n)
	}
	goroutinesSettle(t, base)
	if later := c.began.Load(); later != began {
		t.Fatalf("%d evaluations after Run returned", later-began)
	}
}

// TestOffloadRefill: once a batch is consumed, Refill makes Get return the
// new function's values; concurrent refills of one batch refill once, and a
// repeated batch number is a no-op.
func TestOffloadRefill(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		const n = 800
		sys := NewDAS(1, 1)
		o := NewOffload(sys, n, func(i int) int { return i })
		for batch := 0; ; batch++ {
			for i := 0; i < n; i++ {
				if got, want := o.Get(i), batch*1000+i; got != want {
					t.Fatalf("GOMAXPROCS %d batch %d: Get(%d) = %d, want %d", procs, batch, i, got, want)
				}
			}
			if batch == 3 {
				break
			}
			batch := batch + 1
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					o.Refill(batch, func(i int) int { return batch*1000 + i })
				}()
			}
			wg.Wait()
			o.Refill(batch, func(int) int { return -1 })
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOffloadGetWaitsForBusyIndex: a Get of the index a helper is evaluating,
// with nothing left to claim, blocks until the helper's result is ready and
// returns it.
func TestOffloadGetWaitsForBusyIndex(t *testing.T) {
	withProcs(t, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls [2]atomic.Int32
	sys := NewDAS(1, 1)
	o := NewOffload(sys, 2, func(i int) int {
		calls[i].Add(1)
		if i == 0 {
			close(entered)
			<-release
		}
		return 10 + i
	})
	if got := o.Get(1); got != 11 { // starts the helper, which claims 0
		t.Fatalf("Get(1) = %d, want 11", got)
	}
	<-entered
	go func() {
		for o.waiting.Load() == 0 { // release the helper once Get(0) waits
			runtime.Gosched()
		}
		close(release)
	}()
	if got := o.Get(0); got != 10 {
		t.Fatalf("Get(0) = %d, want 10", got)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if calls[0].Load() != 1 || calls[1].Load() != 1 {
		t.Fatalf("calls %d, %d: want one each", calls[0].Load(), calls[1].Load())
	}
}
