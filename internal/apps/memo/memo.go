// Package memo is the one cache the applications share. Everything an
// application derives from its Config alone — the generated input, the
// sequential reference its verifier compares against, TSP's a-priori bound —
// is a pure function of that Config, so it is computed once per distinct
// Config for the life of the process and handed to every run of that
// instance, on any platform shape and from any number of harness workers.
//
// Held values are shared and read-only: a Build that needs to write takes a
// copy (ASP copies its matrix). Entries are never evicted; the table grows
// with the number of distinct instances a process solves, which for every
// experiment here is a handful. There is no switch to turn it off.
package memo

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
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
