package sim

import (
	"testing"

	"albatross/internal/rng"
)

// TestFreeList: Get hands back the most recently Put record first (the
// warmest), records carved from chunks are distinct and zeroed, and carving
// n records costs O(log n) allocations.
func TestFreeList(t *testing.T) {
	type rec struct {
		v  int
		fn func()
	}
	var f Free[rec]
	if r := f.Get(); r == nil || r.v != 0 || r.fn != nil {
		t.Fatalf("Get on empty = %+v, want a zero record", r)
	}
	a, b := &rec{v: 1}, &rec{v: 2}
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b {
		t.Fatalf("Get = %+v, want the last Put (LIFO)", got)
	}
	f.Put(b)
	if got := f.Get(); got != b {
		t.Fatalf("Get after Put = %+v, want the record just Put", got)
	}
	if got := f.Get(); got != a {
		t.Fatalf("Get = %+v, want the first Put", got)
	}

	const n = 1000
	seen := make(map[*rec]bool, n)
	for i := 0; i < n; i++ {
		r := f.Get()
		if seen[r] || r == a || r == b {
			t.Fatalf("Get %d on a drained list handed out %p twice", i, r)
		}
		if r.v != 0 || r.fn != nil {
			t.Fatalf("Get %d on a drained list = %+v, want a zero record", i, r)
		}
		seen[r] = true
		r.v = i + 1 // a neighbour in the chunk must not see this
	}
	allocs := testing.AllocsPerRun(5, func() {
		var g Free[rec]
		for i := 0; i < n; i++ {
			g.Get()
		}
	})
	if allocs > 20 { // 2·log2(n)
		t.Errorf("%d Gets on an empty list cost %.0f allocations, want O(log n)", n, allocs)
	}
}

// TestFIFOWraparoundAndGrowth drives the ring through wraparound, growth
// while wrapped, and At/Peek at every step against a slice model, then checks
// that the drained ring holds no element it handed out.
func TestFIFOWraparoundAndGrowth(t *testing.T) {
	var q FIFO[*int]
	var model []*int
	vals := make([]int, 200)
	pushed, peak := 0, 0
	check := func(step string) {
		t.Helper()
		if q.Len() != len(model) {
			t.Fatalf("%s: Len %d, want %d", step, q.Len(), len(model))
		}
		for i, v := range model {
			if q.At(i) != v {
				t.Fatalf("%s: At(%d) = %p, want %p", step, i, q.At(i), v)
			}
		}
		if len(model) > 0 && q.Peek() != model[0] {
			t.Fatalf("%s: Peek is not the oldest element", step)
		}
	}
	// Pushes outpace pops by one in three, so the head keeps wrapping while
	// the ring doubles from 8 to 128.
	for round := 0; pushed < len(vals); round++ {
		for k := 0; k < 3 && pushed < len(vals); k++ {
			q.Push(&vals[pushed])
			model = append(model, &vals[pushed])
			pushed++
		}
		peak = max(peak, len(model))
		check("push")
		for k := 0; k < 2 && len(model) > 0; k++ {
			if got := q.Pop(); got != model[0] {
				t.Fatalf("round %d: Pop = %p, want %p", round, got, model[0])
			}
			model = model[1:]
		}
		check("pop")
	}
	for len(model) > 0 {
		if got := q.Pop(); got != model[0] {
			t.Fatalf("drain: Pop = %p, want %p", got, model[0])
		}
		model = model[1:]
	}
	check("drained")
	if len(q.buf) < peak || len(q.buf) >= 2*peak {
		t.Errorf("ring grew to %d slots for a peak of %d elements", len(q.buf), peak)
	}
	for i, v := range q.buf {
		if v != nil {
			t.Errorf("slot %d still references a popped element", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("At past Len did not panic")
		}
	}()
	q.Push(&vals[0])
	q.At(1)
}

func TestSlicesZeroedAndReused(t *testing.T) {
	var s Slices[*int]
	v := 7
	a := s.Get(4)
	if len(a) != 4 || cap(a) != 4 {
		t.Fatalf("Get(4) on an empty list: len %d cap %d, want 4 4", len(a), cap(a))
	}
	a[0], a[3] = &v, &v
	s.Put(a[:2]) // shrunk before Put: the whole capacity is still cleared
	b := s.Get(3)
	if &b[0] != &a[0] {
		t.Fatal("Get after Put did not reuse the buffer")
	}
	for i, p := range b[:cap(b)] {
		if p != nil {
			t.Fatalf("reused buffer slot %d not zeroed", i)
		}
	}
	s.Put(b)
	if c := s.Get(5); &c[0] == &a[0] || len(c) != 5 {
		t.Fatal("Get reused a buffer too small for the length asked")
	}
	if c := s.Get(1); len(c) != 1 || cap(c) != 1 {
		t.Fatal("the too-small buffer stayed on the list")
	}
	m := Slices[int]{MinCap: 16}
	if c := m.Get(3); len(c) != 3 || cap(c) != 16 {
		t.Fatalf("MinCap 16: Get(3) has len %d cap %d", len(c), cap(c))
	}
}

// The Reorder contract is checked against a map model: reorderProgram decodes
// bytes into Puts and Takes. Every byte is one Put:
//
//	bits 0-5  seq = Next() + b - 8: up to 8 below Next (duplicates of taken
//	          numbers) and up to 55 ahead (gaps, duplicates of held ones)
//	bit  6    the value is nil, a lost frame's tombstone
//	bit  7    then Take until Take reports false
//
// Put must refuse exactly the duplicates, and Take must yield every number
// exactly once, in order, with the value it was Put under. The program ends
// by filling every gap and draining.
func reorderProgram(t testing.TB, data []byte) {
	t.Helper()
	var r Reorder[*int]
	vals := make([]int, 1<<10)
	held := map[uint64]*int{} // the model's window
	var next uint64
	take := func() {
		t.Helper()
		for {
			v, ok := r.Take()
			want, in := held[next]
			if ok != in {
				t.Fatalf("Take at %d: ok=%v, model holds it: %v", next, ok, in)
			}
			if !ok {
				return
			}
			if v != want {
				t.Fatalf("Take yielded %p for number %d, want %p", v, next, want)
			}
			delete(held, next)
			next++
			if r.Next() != next {
				t.Fatalf("Next %d after a Take, want %d", r.Next(), next)
			}
		}
	}
	put := func(seq uint64, v *int) {
		t.Helper()
		_, dup := held[seq]
		dup = dup || seq < next
		if got := r.Put(seq, v); got == dup {
			t.Fatalf("Put(%d) = %v, want %v (next %d)", seq, got, !dup, next)
		}
		if !dup {
			held[seq] = v
		}
	}
	for _, b := range data {
		seq := max(int64(next)+int64(b&0x3F)-8, 0)
		var v *int
		if b&0x40 == 0 {
			v = &vals[seq%int64(len(vals))]
		}
		put(uint64(seq), v)
		if b&0x80 != 0 {
			take()
		}
	}
	var hi uint64
	for seq := range held {
		hi = max(hi, seq+1)
	}
	for seq := next; seq < hi; seq++ {
		if _, in := held[seq]; !in {
			put(seq, nil)
		}
	}
	take()
	if len(held) != 0 || r.win.Len() != 0 {
		t.Fatalf("after filling every gap: model holds %d, window %d", len(held), r.win.Len())
	}
}

func FuzzReorder(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{0x88, 0x89, 0x8A},             // in order, each taken at once
		{0x0A, 0x09, 0x88},             // reversed, taken when the gap fills
		{0x08, 0x08, 0x48, 0x88, 0x80}, // duplicates: held, then taken
		{0x3F, 0x4A, 0x09, 0xC8},       // a far gap and tombstones
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		reorderProgram(t, data)
	})
}

// TestReorderRandomPrograms runs the fuzz target's check over 3,000
// generated programs, so the default suite covers more than the seeds.
func TestReorderRandomPrograms(t *testing.T) {
	r := rng.New(28)
	for i := 0; i < 3000; i++ {
		data := make([]byte, r.Intn(300))
		for j := range data {
			data[j] = byte(r.Intn(256))
			if i%3 == 0 {
				data[j] &^= 0x30 // a third with small gaps: most Puts land near Next
			}
		}
		reorderProgram(t, data)
	}
}
