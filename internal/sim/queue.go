package sim

import (
	"math/bits"
	"time"
)

// queue is an engine's one pending-event queue, a monotone radix queue
// (DESIGN.md §5a): events at base, the time last moved to, wait in the due
// list in seq order; later ones in 16×16 buckets, by the highest 4-bit digit
// in which at differs from base and at's value there. Buckets are circular
// lists held by their tails; nodes come from chunks and a free list.
type queue struct {
	base    time.Duration
	due     qnode      // sentinel: due.next is the due list's head
	tail    *qnode     // the due list's tail; nil when it is empty
	levels  uint16     // bit L: some bucket of level L is non-empty
	digits  [16]uint16 // bit d of digits[L]: bucket (L, d) is non-empty
	buckets [16][16]*qnode
	free    *qnode
	chunk   []qnode // nodes not yet handed out
	made    int     // nodes carved so far
}

type qnode struct {
	event
	next *qnode
}

// push queues ev; an ev.at before base is clamped to base.
func (q *queue) push(ev event) {
	if ev.at < q.base {
		ev.at = q.base
	}
	if q.free == nil {
		if len(q.chunk) == 0 {
			// Chunks double up to 1,024 nodes, so growing copies nothing.
			q.chunk = make([]qnode, min(max(q.made, 16), 1024))
			q.made += len(q.chunk)
		}
		q.free, q.chunk = &q.chunk[0], q.chunk[1:]
	}
	nd := q.free
	q.free, nd.event = nd.next, ev
	q.place(nd)
}

// place links nd into the due list or its bucket.
func (q *queue) place(nd *qnode) {
	at := nd.at
	if at == q.base {
		q.pushDue(nd)
		return
	}
	l := (bits.Len64(uint64(at^q.base)) - 1) >> 2
	d := int(uint64(at)>>(4*l)) & 15
	b := &q.buckets[l][d]
	if t := *b; t == nil {
		nd.next = nd
		q.levels |= 1 << l
		q.digits[l] |= 1 << d
	} else {
		nd.next = t.next
		t.next = nd
	}
	*b = nd
}

// pushDue inserts nd into the due list in seq order: on the tail unless it
// is older than the tail, when it walks from the head to its place.
func (q *queue) pushDue(nd *qnode) {
	prev := q.tail
	if prev == nil || nd.seq < prev.seq {
		prev = &q.due
		for prev.next != nil && prev.next.seq < nd.seq {
			prev = prev.next
		}
	}
	if nd.next = prev.next; nd.next == nil {
		q.tail = nd
	}
	prev.next = nd
}

// next reports the earliest queued time and, with the due list empty, the
// bucket (l, d) it is in; ok is false on an empty queue. It never moves base,
// so a later push below the reported time still pops first.
func (q *queue) next() (at time.Duration, l, d int, ok bool) {
	if q.tail != nil || q.levels == 0 {
		return q.base, 0, 0, q.tail != nil
	}
	l = bits.TrailingZeros16(q.levels)
	d = bits.TrailingZeros16(q.digits[l])
	t := q.buckets[l][d]
	at = t.at
	for nd := t.next; nd != t; nd = nd.next {
		at = min(at, nd.at)
	}
	return at, l, d, true
}

// popThrough removes and returns the (time, seq)-least event if its time is
// at most last; ok is false, with base unmoved, otherwise. The due list pops
// whatever last is: its events are at base, which the caller has reached.
func (q *queue) popThrough(last time.Duration) (ev event, ok bool) {
	if q.tail == nil {
		at, l, d, queued := q.next()
		if !queued || at > last {
			return ev, false
		}
		// Move base to the lowest bucket's minimum and redistribute the
		// bucket: its minimum's events join the due list, the rest fall to
		// lower levels, and every other bucket stays valid.
		t := q.buckets[l][d]
		nd := t.next
		t.next, q.buckets[l][d] = nil, nil
		if q.digits[l] &^= 1 << d; q.digits[l] == 0 {
			q.levels &^= 1 << l
		}
		for q.base = at; nd != nil; {
			k := nd.next
			q.place(nd)
			nd = k
		}
	}
	nd := q.due.next
	if q.due.next = nd.next; nd.next == nil {
		q.tail = nil
	}
	ev = nd.event
	nd.event = event{} // drop the callback reference
	nd.next, q.free = q.free, nd
	return ev, true
}

// rewrite replaces every queued seq s by f(s). f must preserve the order of
// any two seqs, so the due list stays sorted.
func (q *queue) rewrite(f func(uint64) uint64) {
	fix := func(nd, stop *qnode) {
		for ; nd != stop; nd = nd.next {
			nd.seq = f(nd.seq)
		}
	}
	fix(q.due.next, nil)
	for _, level := range q.buckets {
		for _, t := range level {
			if t != nil {
				t.seq = f(t.seq)
				fix(t.next, t)
			}
		}
	}
}
