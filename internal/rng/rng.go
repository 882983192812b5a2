// Package rng implements a small deterministic pseudo-random number
// generator used throughout the simulator.
//
// The experiments in this repository must be reproducible bit-for-bit from a
// seed, across Go releases and operating systems. math/rand's global source
// and its seeding behaviour have changed between Go versions, so the
// simulator carries its own generator: SplitMix64 for seeding and stream
// derivation, and PCG-XSH-RR-like mixing (xorshift-multiply, as in
// wyrand/splitmix) for the main stream. The statistical quality is far more
// than the workload generators need.
package rng

import "math"

// Source is a deterministic 64-bit PRNG. It is not safe for concurrent use;
// derive an independent stream per goroutine with Split.
type Source struct {
	state uint64
	gamma uint64 // odd stream constant, makes Split-derived streams independent
}

const (
	goldenGamma   = 0x9e3779b97f4a7c15
	defaultSeed   = 0x7261747361647321 // "ratsads!" — arbitrary non-zero default
	mixMultiplier = 0xbf58476d1ce4e5b9
	mixFinal      = 0x94d049bb133111eb
)

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = defaultSeed
	}
	return &Source{state: seed, gamma: goldenGamma}
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixMultiplier
	z = (z ^ (z >> 27)) * mixFinal
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Split derives a new Source whose stream is statistically independent of
// the parent's. The parent advances by one draw.
func (s *Source) Split() *Source {
	seed := s.Uint64()
	gamma := (mix64(seed^goldenGamma) | 1) // must be odd
	return &Source{state: seed, gamma: gamma}
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, debiased.
	un := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mulHiLo(v, un)
		if lo >= un || lo >= -un%un { // unbiased when lo is clear of the wrap zone
			return int(hi)
		}
	}
}

// mulHiLo returns the 128-bit product of a and b as (hi, lo).
func mulHiLo(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask32+aLo*bHi)>>32
	return hi, lo
}

// IntRange returns a uniform integer in the inclusive range [lo, hi]. It
// panics if lo > hi.
func (s *Source) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: IntRange with lo > hi")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// ExpFloat64 returns an exponentially distributed float with rate 1
// (mean 1), via inversion.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), making the
// same draws as Perm(len(p)). p's previous contents are ignored, so a
// caller's stack array serves as scratch.
func (s *Source) PermInto(p []int) {
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Choose returns k distinct integers sampled uniformly from [0, n),
// in random order. It panics if k > n or k < 0.
func (s *Source) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Choose with k out of range")
	}
	p := s.Perm(n)
	return p[:k]
}
