package sim

// The four containers of the simulator's hot paths. Each is single-threaded
// (an instance belongs to the engine that runs it, see PerEngine), allocates
// nothing in steady state, and drops every reference it hands out. Queued
// buffers are reclaimed as soon as their last user lets go; Free's records
// share chunks, so one is reclaimed with its chunk, once the last user of
// every record carved from that chunk has let go.

// Free is a LIFO free list of *T records; the zero value is empty. Get on an
// empty list carves a zero T from a chunk, so a record that binds a closure
// or a future at creation tests that field after Get.
type Free[T any] struct {
	free  []*T
	chunk []T // records not yet handed out
	made  int // records carved so far
}

// Get pops the most recently Put record — the warmest one — or carves a zero
// one. Chunks double up to 256 records, so n carves cost O(log n) allocations.
func (f *Free[T]) Get() *T {
	if k := len(f.free); k > 0 {
		t := f.free[k-1]
		f.free = f.free[:k-1]
		return t
	}
	if len(f.chunk) == 0 {
		f.chunk = make([]T, min(max(f.made, 1), 256))
		f.made += len(f.chunk)
	}
	t := &f.chunk[0]
	f.chunk = f.chunk[1:]
	return t
}

// Put recycles t. The caller has dropped whatever t must not keep alive.
func (f *Free[T]) Put(t *T) { f.free = append(f.free, t) }

// Slices is a LIFO free list of []E buffers; the zero value is empty.
type Slices[E any] struct {
	free [][]E
	// MinCap is the least capacity Get gives a buffer it has to make, so a
	// list serving several lengths can make every buffer fit the largest.
	MinCap int
}

// Get returns a zeroed slice of length n: the most recently Put buffer when
// its capacity suffices (a smaller one is dropped), or a new one.
func (s *Slices[E]) Get(n int) []E {
	if k := len(s.free); k > 0 {
		b := s.free[k-1]
		s.free = s.free[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]E, n, max(n, s.MinCap))
}

// Put recycles b, clearing its whole capacity: the list keeps nothing alive,
// and the next Get hands it out zeroed.
func (s *Slices[E]) Put(b []E) {
	clear(b[:cap(b)])
	s.free = append(s.free, b[:0])
}

// FIFO is a first-in first-out queue on a power-of-two ring; the zero value
// is empty. Unlike an append/reslice slice queue it reuses its backing array
// forever, so a steady Push/Pop cycle allocates nothing, and Pop clears the
// slot it empties.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // queued count
}

// Len reports the number of queued elements.
func (f *FIFO[T]) Len() int { return f.n }

// Push appends v, doubling the ring when it is full.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// Pop removes and returns the oldest element. The queue must not be empty.
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero // drop the reference
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Peek returns the oldest element without removing it. The queue must not be
// empty.
func (f *FIFO[T]) Peek() T { return f.buf[f.head] }

// At returns the i-th oldest element, 0 <= i < Len.
func (f *FIFO[T]) At(i int) T { return *f.slot(i) }

func (f *FIFO[T]) slot(i int) *T {
	if uint(i) >= uint(f.n) {
		panic("sim: FIFO index out of range")
	}
	return &f.buf[(f.head+i)&(len(f.buf)-1)]
}

func (f *FIFO[T]) grow() {
	buf := make([]T, max(2*len(f.buf), 8))
	for i := 0; i < f.n; i++ {
		buf[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = buf
	f.head = 0
}

// Reorder hands out values in sequence order: Put files a value under its
// sequence number, in any order, and Take returns the value numbered Next()
// once it is in. Each number is accepted at most once. The zero value expects
// number 0 first; a zero T (a nil pointer, say) is a value like any other.
type Reorder[T any] struct {
	next uint64
	win  FIFO[reorderSlot[T]] // win.slot(i) is number next+i
}

type reorderSlot[T any] struct {
	v  T
	in bool
}

// Next reports the lowest sequence number not yet taken.
func (r *Reorder[T]) Next() uint64 { return r.next }

// Put files v under seq. It reports false, keeping nothing, for a duplicate:
// a number already taken or already held.
func (r *Reorder[T]) Put(seq uint64, v T) bool {
	if seq < r.next {
		return false
	}
	off := seq - r.next
	for uint64(r.win.Len()) <= off {
		r.win.Push(reorderSlot[T]{})
	}
	h := r.win.slot(int(off))
	if h.in {
		return false
	}
	*h = reorderSlot[T]{v, true}
	return true
}

// Take removes and returns the value numbered Next(), advancing Next; ok is
// false while that number has not been Put.
func (r *Reorder[T]) Take() (v T, ok bool) {
	if r.win.Len() == 0 || !r.win.slot(0).in {
		return v, false
	}
	r.next++
	return r.win.Pop().v, true
}
