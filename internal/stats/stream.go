// Package stats provides the statistical machinery that Smokescreen's
// estimators are built on: deterministic splittable random streams,
// sampling without replacement, concentration inequalities (Hoeffding,
// Hoeffding–Serfling, empirical Bernstein), normal-distribution quantiles,
// and moments plus a normal approximation for the hypergeometric
// distribution.
//
// Everything in this package is deterministic given a seed. Experiments in
// the repository are reproducible bit-for-bit because all randomness flows
// through Stream values derived from a root seed.
package stats

import "math"

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is the standard SplitMix64 generator (Steele et al., OOPSLA 2014),
// used both as the PRNG core and as the stream-splitting hash.
func splitmix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random stream. Unlike math/rand.Rand it
// is splittable: Child derives an independent stream from a label, so a
// simulation tree (dataset -> frame -> object) can hand out reproducible
// randomness without any global sequencing requirement.
//
// A Stream must not be shared between goroutines without synchronization;
// derive one child per goroutine instead.
type Stream struct {
	state uint64
}

// NewStream returns a stream seeded with seed.
func NewStream(seed uint64) *Stream {
	// One warm-up step decorrelates small adjacent seeds.
	s := &Stream{state: seed}
	s.Uint64()
	return s
}

// Child derives an independent stream keyed by label. Two children with
// different labels produce uncorrelated sequences; the parent stream is not
// advanced.
func (s *Stream) Child(label uint64) *Stream {
	// Mix the parent's state with the label through two rounds so that
	// Child(1).Child(2) differs from Child(2).Child(1).
	_, h1 := splitmix64(s.state ^ 0xa5a5a5a5deadbeef)
	_, h2 := splitmix64(h1 ^ label)
	return NewStream(h2)
}

// ChildN derives an independent stream keyed by a sequence of labels.
func (s *Stream) ChildN(labels ...uint64) *Stream {
	c := s
	for _, l := range labels {
		c = c.Child(l)
	}
	return c
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	var out uint64
	s.state, out = splitmix64(s.state)
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b, returning high and low
// words. Implemented portably so the package has no architecture deps.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (s *Stream) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's multiplication method; for large means a normal
// approximation with continuity correction keeps it O(1).
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*s.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n), in random order. It panics if k > n or k < 0. The implementation
// is a partial Fisher–Yates shuffle over a sparse map, costing O(k) time
// and space regardless of n.
func (s *Stream) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: SampleWithoutReplacement with k out of range")
	}
	swapped := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		// swapped[i] is never read again (i strictly increases), but keep
		// the map consistent in case j == i on a later draw.
		swapped[i] = vj
	}
	return out
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}
