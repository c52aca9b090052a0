package sim

import "time"

// Lane is a FIFO of future events whose times never decrease — an ordered
// stream such as a WAN pipe's arrivals — kept in front of the event queue:
// only the lane's oldest event is queued, the rest wait in a ring. A
// saturated pipe schedules every queued unit's arrival far ahead, and with one
// queue entry per unit the queue grows to the depth of all the pipes together;
// with lanes it holds one entry per pipe.
//
// The ring holds items, not callbacks: a lane's events all run one fire
// function, bound at NewLane, on their own item. An insert that cannot join
// the ring — one due now, one earlier than the ring's tail, or any insert on
// an LP of a sharded run — becomes a plain event whose callback the spill
// function, also bound at NewLane, returns for the item.
//
// Dispatch order is unchanged by construction. Every event takes its seq from
// the engine counter at enqueue, exactly as At does, and the ring is ordered
// by (at, seq) because at never decreases and seq always increases. So a
// lane's head is its minimum, the queue's next event is the minimum over
// every lane and every plain event, and when a head fires it queues its
// successor under the successor's own (at, seq) before running fire.
type Lane[T any] struct {
	src, dst *Engine
	q        FIFO[laneEvent[T]] // q.Peek() is the event in the engine queue
	fire     func(T)
	spill    func(T) func()
	fireFn   func() // bound to fireHead once
}

type laneEvent[T any] struct {
	at   time.Duration
	seq  uint64
	item T
}

// NewLane returns an empty lane for events that src schedules on dst (the
// same engine unless they are two LPs of a sharded run). fire runs an item's
// event from the ring; spill returns the callback of an item's event that
// cannot join the ring, which must do what fire does.
func NewLane[T any](src, dst *Engine, fire func(T), spill func(T) func()) *Lane[T] {
	l := &Lane[T]{src: src, dst: dst, fire: fire, spill: spill}
	l.fireFn = l.fireHead
	return l
}

// At schedules item's event at absolute virtual time t, like
// src.AtShard(dst, t, spill(item)).
func (l *Lane[T]) At(t time.Duration, item T) {
	e := l.dst
	l.src.census.Lane++
	if e.root != nil {
		// Sharded run: mid-window seqs are provisional and rewritten in the
		// LP queues at every fence, which a ring outside them would miss.
		l.src.scheduleOn(e, t, l.spill(item))
		return
	}
	if t <= e.now || (l.q.Len() > 0 && t < l.q.At(l.q.Len()-1).at) {
		// Due now, or earlier than the lane's tail: not FIFO, so a plain event.
		e.schedule(t, l.spill(item))
		return
	}
	if e.chainer != nil {
		e.chainer.misuse()
	}
	e.seq++
	l.q.Push(laneEvent[T]{at: t, seq: e.seq, item: item})
	if l.q.Len() == 1 {
		e.q.push(event{at: t, seq: e.seq, fn: l.fireFn})
	}
}

// fireHead is the queued entry of the lane's head: it pops the head, queues
// the next one, and fires the popped item.
func (l *Lane[T]) fireHead() {
	item := l.q.Pop().item
	if l.q.Len() > 0 {
		next := l.q.Peek()
		l.dst.q.push(event{at: next.at, seq: next.seq, fn: l.fireFn})
	}
	l.fire(item)
}
