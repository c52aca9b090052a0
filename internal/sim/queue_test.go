package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"albatross/internal/rng"
)

// The queue contract is an oracle one: fed any program of pushes, pops,
// peeks and seq rewrites, the queue must give exactly what a sorted slice
// gives, and after every step its peek must equal the reference's minimum
// time. queueProgram decodes a byte string into such a program. Every step
// is two bytes, an op and an argument a:
//
//	op%8 = 0, 1  push a fresh seq at base + delay(a)
//	op%8 = 2     push a fresh seq at base (due now)
//	op%8 = 3     push at the time of a queued event (a tie), fresh seq
//	op%8 = 4     push a reserved older seq at base + delay(a): a lane head
//	op%8 = 5     push a provisional seq (provBase|k) at base + delay(a)
//	op%8 = 6     pop through base + delay(a), or unbounded when a is 0
//	op%8 = 7     peek, then push at a time between base and the peeked one:
//	             it must pop before the peeked event
//
// op ≥ 0xF0 rewrites the seqs instead: every provisional seq k becomes the
// next canonical one, in k order, as a window merge does. A program ends by
// popping everything.
type refEvent struct {
	at  time.Duration
	seq uint64
}

func refLess(a, b refEvent) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	if a.seq > b.seq {
		return 1
	}
	return 0
}

// delay spreads a byte over every radix level: its low nibble is a digit,
// its high nibble the level.
func delay(a byte) time.Duration {
	return time.Duration(a&15) << (4 * (a >> 4) % 48)
}

func queueProgram(t testing.TB, data []byte) {
	var q queue
	var ref []refEvent // sorted by (at, seq)
	var base time.Duration
	var seq uint64 = 100 // seqs below 100 are reserved for lane heads
	var reserved uint64
	var prov uint64
	fn := func() {}
	push := func(at time.Duration, s uint64) {
		q.push(event{at: at, seq: s, fn: fn})
		ev := refEvent{max(at, base), s}
		i, _ := slices.BinarySearchFunc(ref, ev, refLess)
		ref = slices.Insert(ref, i, ev)
	}
	pop := func(last time.Duration) {
		ev, ok := q.popThrough(last)
		want := len(ref) > 0 && (ref[0].at == base || ref[0].at <= last)
		if ok != want {
			t.Fatalf("popThrough(%v) ok = %v, want %v (base %v, next %v)", last, ok, want, base, ref)
		}
		if !ok {
			return
		}
		if got := (refEvent{ev.at, ev.seq}); got != ref[0] {
			t.Fatalf("popped (%v, %d), want (%v, %d)", got.at, got.seq, ref[0].at, ref[0].seq)
		}
		if ev.fn == nil {
			t.Fatal("popped event lost its callback")
		}
		base = ref[0].at
		ref = ref[1:]
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, a := data[i], data[i+1]
		if op >= 0xF0 {
			q.rewrite(func(s uint64) uint64 {
				if s >= provBase {
					return seq + 1 + s&^provBase
				}
				return s
			})
			for j := range ref {
				if s := ref[j].seq; s >= provBase {
					ref[j].seq = seq + 1 + s&^provBase
				}
			}
			seq += prov
			prov = 0
			continue
		}
		switch op % 8 {
		case 0, 1:
			seq++
			push(base+delay(a), seq)
		case 2:
			seq++
			push(base, seq)
		case 3:
			if len(ref) == 0 {
				continue
			}
			seq++
			push(ref[int(a)%len(ref)].at, seq)
		case 4:
			if reserved == 99 {
				continue
			}
			reserved++
			push(base+delay(a), reserved)
		case 5:
			push(base+delay(a), provBase|prov)
			prov++
		case 6:
			last := time.Duration(math.MaxInt64)
			if a != 0 {
				last = base + delay(a)
			}
			pop(last)
		case 7:
			at, _, _, ok := q.next()
			if ok != (len(ref) > 0) || ok && at != ref[0].at {
				t.Fatalf("next() = %v, %v; want %v", at, ok, ref)
			}
			if !ok || at == base {
				continue
			}
			seq++
			push(base+time.Duration(a)%(at-base), seq)
		}
		if at, _, _, ok := q.next(); ok != (len(ref) > 0) || ok && at != ref[0].at {
			t.Fatalf("next() = %v, %v; want %v", at, ok, ref)
		}
	}
	for len(ref) > 0 {
		pop(math.MaxInt64)
	}
	if _, ok := q.popThrough(math.MaxInt64); ok {
		t.Fatal("drained queue still pops")
	}
}

// queueSeeds: a single push, ties at one far instant, lane heads walking
// into a due list, a peek followed by an earlier push, and provisional seqs
// rewritten with events due now.
var queueSeeds = [][]byte{
	{},
	{0, 0x35, 6, 0},
	{0, 0x5F, 3, 0, 3, 1, 3, 2, 6, 0, 6, 0, 6, 0, 6, 0},
	{0, 0x12, 2, 0, 2, 0, 6, 0, 4, 0, 4, 0, 2, 0, 6, 0, 6, 0, 6, 0, 6, 0},
	{0, 0x9A, 7, 200, 7, 3, 6, 0, 6, 0, 6, 0},
	{5, 0x21, 5, 0, 2, 0, 5, 0x21, 0xF0, 0, 2, 0, 6, 0, 6, 0, 6, 0, 6, 0},
}

func FuzzEventQueue(f *testing.F) {
	for _, s := range queueSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		queueProgram(t, data)
	})
}

// TestEventQueueRandomPrograms runs the fuzz target's check over generated
// programs, so the default suite covers more than the seeds.
func TestEventQueueRandomPrograms(t *testing.T) {
	r := rng.New(34)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 2*r.Intn(300))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		for j := 1; j < len(data); j += 2 {
			if i%3 == 0 {
				data[j] &= 0x1F // a third near base: many ties and due events
			}
		}
		queueProgram(t, data)
	}
}
