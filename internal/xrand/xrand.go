// Package xrand provides a small, fast, deterministic random number
// generator shared by the trace, datagen and stats packages.
//
// Every stochastic component of the reproduction (data generation,
// framework code-path selection, K-means seeding) draws from an xrand.Rand
// seeded explicitly, so repeated runs of every experiment are bit-identical.
// The generator is SplitMix64, which passes BigCrush and needs no
// allocation or locking.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// The zero value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Seed resets the generator state.
func (r *Rand) Seed(seed uint64) { r.state = seed }

// State returns the generator state; Seed(State()) leaves the generator
// as it was.
func (r *Rand) State() uint64 { return r.state }

// Step is one SplitMix64 draw on a state held outside a Rand: it
// returns the advanced state and the draw's 64 random bits. A hot loop
// that loads State into a local, steps it and stores it back with Seed
// draws exactly the sequence Uint64 would.
func Step(state uint64) (next, bits uint64) {
	next = state + 0x9E3779B97F4A7C15
	z := next
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return next, z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits (SplitMix64).
func (r *Rand) Uint64() uint64 {
	var z uint64
	r.state, z = Step(r.state)
	return z
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the
// Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Hash64 is a stateless mix function: it hashes x to a well distributed
// 64-bit value. Used to derive per-PC deterministic branch outcomes and
// per-record code paths without consuming generator state.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}
