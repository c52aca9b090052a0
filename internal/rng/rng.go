// Package rng provides small, fast, deterministic pseudo-random number
// generators for reproducible workload generation. The generators are
// self-contained (no global state, no locking) so every simulated process
// can own an independent, seed-derived stream.
package rng

// SplitMix64 advances the given state and returns the next 64-bit value of
// the splitmix64 sequence. It is used both directly for cheap hashing and to
// seed Rand streams.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 deterministically mixes x into a well-distributed 64-bit value.
func Hash64(x uint64) uint64 {
	s := x
	return SplitMix64(&s)
}

// Rand is a xoshiro256** generator. The zero value is invalid; obtain
// instances with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, as recommended by
// the xoshiro authors. Distinct seeds give independent-looking streams.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed re-initializes the generator in place to the exact stream New(seed)
// would produce, so hot loops can reseed one reused generator per item
// instead of allocating a fresh one.
func (r *Rand) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&st)
	}
}

// Derive returns a new generator whose stream is a deterministic function of
// this generator's seed material and the given stream index; the parent's
// state is not consumed. Use it to give each process its own stream.
func (r *Rand) Derive(stream uint64) *Rand {
	return New(r.s[0] ^ Hash64(stream+0x1234_5678_9abc_def0))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
