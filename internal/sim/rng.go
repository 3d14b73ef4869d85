// Package sim provides the deterministic simulation kernel shared by all
// subsystems: a seedable pseudo-random number generator, fixed-capacity
// queues, fixed-latency delay lines and the cycle engine.
//
// Every stochastic decision in the simulator flows through RNG so that a
// simulation is a pure function of its configuration and seed; the harness
// exploits this to run parameter sweeps on parallel goroutines while keeping
// each data point exactly reproducible.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random number generator seeded through
// SplitMix64. It is deliberately not safe for concurrent use: each simulation
// owns its generators and runs on a single goroutine.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator whose stream is fully determined by seed;
// SplitMix64 fills a well-mixed non-zero state for any seed value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// step is one xoshiro256** step: the output and the next state. The words
// go by value, so a caller looping over draws keeps them in registers.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Uint64 returns the next value of the xoshiro256** stream.
func (r *RNG) Uint64() (v uint64) {
	v, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return v
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := (-uint64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NextHit runs Bool(p)'s trials at i, i+1, … below n and returns the first
// that fires, or n, with that loop's draws: none if p <= 0 or p >= 1 (i
// fires), one per index for NaN. Float64() < p is d/2^53 < p for the integer
// d = Uint64()>>11, i.e. exactly d < ceil(p·2^53); the state stays in locals.
func (r *RNG) NextHit(p float64, i, n int) int {
	var thr uint64 // NaN never fires
	switch {
	case i >= n || p <= 0:
		return n
	case p >= 1:
		return i
	case p < 1:
		thr = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var v uint64
	for ; i < n; i++ {
		v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if v>>11 < thr {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i
}
