package sim

import "time"

// Lane is a FIFO of future events whose times never decrease — an ordered
// stream such as a WAN pipe's arrivals — kept in front of the event queue:
// only the lane's oldest event is queued, the rest wait in a ring. A
// saturated pipe schedules every queued unit's arrival far ahead, and with one
// queue entry per unit the queue grows to the depth of all the pipes together;
// with lanes it holds one entry per pipe.
//
// Dispatch order is unchanged by construction. Every event takes its seq from
// the engine counter at enqueue, exactly as At does, and the ring is ordered
// by (at, seq) because at never decreases and seq always increases. So a
// lane's head is its minimum, the queue's next event is the minimum over
// every lane and every plain event, and when a head fires it queues its
// successor under the successor's own (at, seq) before running the callback.
// An event that would break the lane's order goes through At instead.
type Lane struct {
	src, dst *Engine
	q        FIFO[event] // q.Peek() is the event in the engine queue
	fireFn   func()      // bound to fire once
}

// NewLane returns an empty lane for events that src schedules on dst (the
// same engine unless they are two LPs of a sharded run).
func NewLane(src, dst *Engine) *Lane {
	l := &Lane{src: src, dst: dst}
	l.fireFn = l.fire
	return l
}

// At schedules fn at absolute virtual time t, like src.AtShard(dst, t, fn).
func (l *Lane) At(t time.Duration, fn func()) {
	e := l.dst
	l.src.census.Lane++
	if e.root != nil {
		// Sharded run: mid-window seqs are provisional and rewritten in the
		// LP queues at every fence, which a ring outside them would miss.
		l.src.scheduleOn(e, t, fn)
		return
	}
	if t <= e.now || (l.q.Len() > 0 && t < l.q.At(l.q.Len()-1).at) {
		// Due now, or earlier than the lane's tail: not FIFO, so a plain event.
		e.schedule(t, fn)
		return
	}
	if e.chainer != nil {
		e.chainer.misuse()
	}
	e.seq++
	l.q.Push(event{at: t, seq: e.seq, fn: fn})
	if l.q.Len() == 1 {
		e.q.push(event{at: t, seq: e.seq, fn: l.fireFn})
	}
}

// fire is the queued entry of the lane's head: it pops the head, queues the
// next one, and runs the popped callback.
func (l *Lane) fire() {
	fn := l.q.Pop().fn
	if l.q.Len() > 0 {
		next := l.q.Peek()
		l.dst.q.push(event{at: next.at, seq: next.seq, fn: l.fireFn})
	}
	fn()
}
