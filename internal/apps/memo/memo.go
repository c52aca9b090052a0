// Package memo is the one cache the applications share. Everything an
// application derives from its Config alone — the generated input, the
// sequential reference its verifier compares against, TSP's a-priori bound,
// the per-job search tables of TSP, ATPG and IDA* — is a pure function of
// that Config, so it is computed once per distinct Config for the life of
// the process and handed to every run of that instance, on any platform
// shape and from any number of harness workers. A table's entries are
// independent, so Each fills it on every core. TSP, ATPG and IDA* hold no
// reference of their own: theirs is a fold of the table the runs read, so
// each search runs once per process, and the serial searches the folds
// equal are their packages' test oracles.
//
// Held values are shared and read-only: a Build that needs to write takes a
// copy (ASP copies its matrix). Entries are never evicted; the table grows
// with the number of distinct instances a process solves, which for every
// experiment here is a handful. There is no switch to turn it off.
package memo

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// audits holds one checker per memo, appended as package-level memos are
// initialized (see Audit).
var (
	mu     sync.Mutex
	audits []func() error
)

// Of returns compute memoized by key: the first caller of a key runs
// compute, concurrent callers of the same key wait for that one result
// instead of solving again, and callers of other keys are not held up.
func Of[K comparable, V any](compute func(K) V) func(K) V {
	var cells sync.Map // K -> func() V, a sync.OnceValue around compute(k)
	mu.Lock()
	audits = append(audits, func() (err error) {
		cells.Range(func(k, cell any) bool {
			if held, fresh := cell.(func() V)(), compute(k.(K)); !reflect.DeepEqual(held, fresh) {
				err = fmt.Errorf("memo: %T: the value held for %+v no longer equals a fresh computation", compute, k)
			}
			return err == nil
		})
		return err
	})
	mu.Unlock()
	return func(k K) V {
		cell, ok := cells.Load(k)
		if !ok {
			cell, _ = cells.LoadOrStore(k, sync.OnceValue(func() V { return compute(k) }))
		}
		return cell.(func() V)()
	}
}

// Audit recomputes every value every memo holds and reports the first that
// no longer equals its fresh computation — that is, a holder that wrote to
// a shared value. It is the check behind the read-only contract.
func Audit() error {
	mu.Lock()
	all := slices.Clone(audits)
	mu.Unlock()
	for _, audit := range all {
		if err := audit(); err != nil {
			return err
		}
	}
	return nil
}

// Each returns f(0), …, f(n−1), evaluated by the caller and GOMAXPROCS−1
// more goroutines that claim indices in ascending order. It returns once
// every index is done, so no goroutine outlives the call; with GOMAXPROCS 1
// it is a plain loop. f must be pure: it may run on any goroutine, and which
// one evaluated an index never shows in the result.
func Each[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			out[i] = f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
