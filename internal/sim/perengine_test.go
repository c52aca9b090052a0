package sim

import (
	"reflect"
	"testing"
)

// TestPerEngine pins the one layout rule for hot mutable state: one instance
// per engine, slots on the same engine aliasing it, mk called with the
// engine's first slot.
func TestPerEngine(t *testing.T) {
	type state struct{ first int }
	build := func(engs []*Engine) (bySlot, each []*state, calls []int) {
		bySlot, each = PerEngine(engs, func(first int) *state {
			calls = append(calls, first)
			return &state{first}
		})
		return
	}

	t.Run("plain", func(t *testing.T) {
		e := NewEngine()
		bySlot, each, calls := build([]*Engine{e, e, e, e})
		if !reflect.DeepEqual(calls, []int{0}) || len(each) != 1 {
			t.Fatalf("mk calls %v, %d instances; want one call with 0", calls, len(each))
		}
		for i, s := range bySlot {
			if s != each[0] {
				t.Fatalf("slot %d is not an alias of the one instance", i)
			}
		}
	})

	t.Run("two-LPs", func(t *testing.T) {
		lps := NewEngine().Shard(2)
		bySlot, each, calls := build([]*Engine{lps[0], lps[0], lps[1], lps[1]})
		if !reflect.DeepEqual(calls, []int{0, 2}) || len(each) != 2 {
			t.Fatalf("mk calls %v, %d instances; want calls 0 and 2", calls, len(each))
		}
		if each[0].first != 0 || each[1].first != 2 {
			t.Fatalf("each not in first-slot order: %d, %d", each[0].first, each[1].first)
		}
		if bySlot[0] != each[0] || bySlot[1] != each[0] || bySlot[2] != each[1] || bySlot[3] != each[1] {
			t.Fatalf("slots do not alias their LP's instance: %v", bySlot)
		}
	})

	t.Run("more-LPs-than-slots", func(t *testing.T) {
		lps := NewEngine().Shard(4)
		bySlot, each, calls := build([]*Engine{lps[0], lps[1]}) // LPs 2 and 3 own nothing
		if !reflect.DeepEqual(calls, []int{0, 1}) || len(each) != 2 || len(bySlot) != 2 {
			t.Fatalf("mk calls %v, %d instances, %d slots; want one per slot", calls, len(each), len(bySlot))
		}
		if bySlot[0] == bySlot[1] {
			t.Fatal("slots on different LPs share an instance")
		}
	})
}
