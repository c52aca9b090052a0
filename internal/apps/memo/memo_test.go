package memo

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneComputePerKey has 16 goroutines ask for one key at once: compute
// runs exactly once, the others wait for it, and all see its value.
func TestOneComputePerKey(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	get := Of(func(k int) *int {
		calls.Add(1)
		<-release // hold the first caller inside compute until all 16 have asked
		v := k * 2
		return &v
	})

	const callers = 16
	var asked, done sync.WaitGroup
	got := make([]*int, callers)
	for i := range got {
		asked.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			asked.Done()
			got[i] = get(21)
		}()
	}
	asked.Wait()
	close(release)
	done.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", n)
	}
	for i, p := range got {
		if p != got[0] || *p != 42 {
			t.Fatalf("caller %d saw %p (%d), caller 0 saw %p", i, p, *p, got[0])
		}
	}
}

// TestDistinctKeysDoNotBlock parks key 1's compute until key 2 has been
// computed and returned: a memo that serialized keys would deadlock here.
func TestDistinctKeysDoNotBlock(t *testing.T) {
	twoDone := make(chan struct{})
	get := Of(func(k int) int {
		if k == 1 {
			<-twoDone
		}
		return -k
	})
	oneDone := make(chan int)
	go func() { oneDone <- get(1) }()
	if v := get(2); v != -2 {
		t.Fatalf("get(2) = %d", v)
	}
	close(twoDone)
	if v := <-oneDone; v != -1 {
		t.Fatalf("get(1) = %d", v)
	}
}

// TestAuditCatchesAWrite: Audit passes while holders only read and names
// the memo once one of them writes through a held value.
func TestAuditCatchesAWrite(t *testing.T) {
	get := Of(func(n int) []int { return make([]int, n) })
	get(3)
	get(5)
	if err := Audit(); err != nil {
		t.Fatalf("clean memo: %v", err)
	}
	get(5)[4] = 1
	err := Audit()
	if err == nil || !strings.Contains(err.Error(), "func(int) []int") {
		t.Fatalf("Audit after a write through a held value: %v", err)
	}
	get(5)[4] = 0 // leave the process-wide audit clean for other tests
}

// TestEachMatchesLoop: for n = 0, 1, below and above GOMAXPROCS, Each
// returns what a plain loop over f returns, evaluates every index exactly
// once, and leaves no goroutine behind.
func TestEachMatchesLoop(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, max(procs-1, 2), procs + 1, 1000} {
		calls := make([]atomic.Int32, n)
		f := func(i int) uint64 {
			calls[i].Add(1)
			v := uint64(i)
			for r := 0; r < 1+i%37*50; r++ { // uneven costs reorder the claims
				v = v*6364136223846793005 + 1442695040888963407
			}
			return v
		}
		want := make([]uint64, n)
		for i := range want {
			want[i] = f(i)
		}
		before := runtime.NumGoroutine()
		got := Each(n, f)
		// A helper has called Done before it exits: give it a moment.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("n=%d: %d goroutines after Each, %d before", n, runtime.NumGoroutine(), before)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("n=%d: Each differs from the loop", n)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 2 { // once by the loop, once by Each
				t.Errorf("n=%d: index %d evaluated %d times by Each", n, i, c-1)
			}
		}
	}
}
