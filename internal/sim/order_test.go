package sim

import (
	"testing"
	"time"

	"albatross/internal/rng"
)

// TestSeqOrderingLargeScale floods the dispatcher with over a million events
// at random times (plus nested, sometimes past-time reschedules) and checks
// the full (time, seq) contract at scale: the clock never goes backwards and
// events sharing an instant run in exactly the order they were scheduled.
// This exercises nine radix levels of the queue, long due lists, bucket
// redistribution, and the seq counter well past any small-queue special cases.
func TestSeqOrderingLargeScale(t *testing.T) {
	const n = 1 << 20 // > 1e6 scheduled events before nested reschedules
	r := rng.New(42)
	e := NewEngine()
	lastAt := time.Duration(-1)
	lastScheduled := make(map[time.Duration]int) // instant -> last schedule index run
	dispatchedCount := 0
	bad := 0
	check := func(idx int) {
		dispatchedCount++
		now := e.Now()
		if now < lastAt {
			bad++
			return
		}
		lastAt = now
		if prev, ok := lastScheduled[now]; ok && idx < prev {
			// Two events at one instant ran out of schedule order.
			bad++
		}
		lastScheduled[now] = idx
	}
	idx := 0
	schedule := func(at time.Duration) {
		i := idx
		idx++
		e.At(at, func() {
			check(i)
			// A sprinkle of nested schedules, some into the past (which must
			// clamp to now and still run after everything already queued for
			// this instant).
			if i%1024 == 0 {
				j := idx
				idx++
				e.At(e.Now()-time.Millisecond, func() { check(j) })
			}
		})
	}
	for i := 0; i < n; i++ {
		schedule(time.Duration(r.Intn(1<<16)) * time.Microsecond)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Fatalf("%d ordering violations over %d dispatches", bad, dispatchedCount)
	}
	if dispatchedCount != idx {
		t.Fatalf("dispatched %d events, scheduled %d", dispatchedCount, idx)
	}
	if got := e.Dispatched(); got != uint64(idx) {
		t.Fatalf("Dispatched() = %d, want %d", got, idx)
	}
}

// TestPastEventOrdersAfterQueuedNowEvents pins the subtle half of the At
// contract: an event scheduled for a past instant is clamped to now, and
// because seq keeps counting it must run AFTER every event already queued at
// the current instant — never jump the queue.
func TestPastEventOrdersAfterQueuedNowEvents(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10*time.Millisecond, func() {
		e.At(e.Now(), func() { got = append(got, "now-1") })
		e.At(e.Now(), func() { got = append(got, "now-2") })
		e.At(e.Now()-5*time.Millisecond, func() { got = append(got, "past") })
		e.At(e.Now(), func() { got = append(got, "now-3") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"now-1", "now-2", "past", "now-3"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestQueuedEventsDueNowRunBeforeNewEntries mixes old and new events at one
// instant: an event scheduled for this instant from an earlier instant
// carries a smaller seq than any event scheduled at the instant itself, so it
// must dispatch first — the pure (time, seq) order.
func TestQueuedEventsDueNowRunBeforeNewEntries(t *testing.T) {
	e := NewEngine()
	var got []string
	// Both scheduled at t=0 for t=10ms: seqs 1 and 2.
	e.At(10*time.Millisecond, func() {
		got = append(got, "old-1")
		// Scheduled at t=10ms for now with seq 3: must wait for old-2
		// (seq 2, also due now).
		e.At(e.Now(), func() { got = append(got, "new-1") })
	})
	e.At(10*time.Millisecond, func() { got = append(got, "old-2") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"old-1", "old-2", "new-1"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}
