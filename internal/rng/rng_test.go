package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestDeriveIndependent(t *testing.T) {
	parent := New(7)
	d1 := parent.Derive(1)
	d2 := parent.Derive(2)
	d1again := parent.Derive(1)
	if d1.Uint64() != d1again.Uint64() {
		t.Fatal("Derive not deterministic")
	}
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("different streams collide immediately")
	}
	// Deriving must not consume parent state.
	p2 := New(7)
	if parent.Uint64() != p2.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v, want ~0.5", mean)
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bit := 0; bit < 64; bit += 7 {
		a := Hash64(12345)
		b := Hash64(12345 ^ (1 << bit))
		diff := a ^ b
		n := 0
		for diff != 0 {
			n += int(diff & 1)
			diff >>= 1
		}
		if n < 10 || n > 54 {
			t.Fatalf("bit %d: only %d output bits flipped", bit, n)
		}
	}
}
