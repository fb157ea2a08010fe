// Package rngx provides a small, fast, deterministic PRNG (splitmix64) with
// no global state. Every protocol, node, and experiment owns its own Source
// seeded explicitly, so whole simulations replay bit-for-bit from a seed —
// a requirement for the paper-reproduction harness and for the lockstep/live
// engine equivalence tests.
package rngx

import "math"

// Source is a splitmix64 PRNG. The zero value is a valid source seeded at 0;
// prefer New to decorrelate streams.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Child derives an independent source for a subcomponent, mixing in an id.
// Children of distinct ids, and the parent, produce decorrelated streams.
// Deriving a child does not advance the parent, so the order in which
// children are created never matters.
func (s *Source) Child(id uint64) *Source {
	return New(s.ChildSeed(id))
}

// ChildSeed returns the seed Child(id) would construct its stream from,
// without allocating — the allocation-free half of Child used by engine
// Reset to rewind existing node sources in place.
func (s *Source) ChildSeed(id uint64) uint64 {
	return mix(s.state ^ (0x9e3779b97f4a7c15 * (id + 1)))
}

// Reseed rewinds the source to the state New(seed) would start from,
// reusing the Source value. Combined with ChildSeed it lets a whole engine
// restore its RNG tree to a freshly-constructed state without allocating.
func (s *Source) Reseed(seed uint64) { s.state = seed }

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rngx: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rngx: Int63n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Threshold returns the integer form of a probability p for Below, so that
// Below(Threshold(p)) is Bool(p) coin for coin: the same result and the
// same stream state after it, for every p, NaN included. Bool compares
// m/2⁵³ < p for the top 53 bits m of one draw; both sides are exact, so
// that is m < p·2⁵³, which for an integer m is m < ⌈p·2⁵³⌉. For p in
// (0, 1) the threshold is that ceiling, in [1, 2⁵³-1]; 2⁵³ stands for
// "true without a draw" (p ≥ 1) and anything above for "false without a
// draw" (p ≤ 0). NaN draws and fails, as it does in Bool: threshold 0.
func Threshold(p float64) uint64 {
	switch {
	case p <= 0:
		return math.MaxUint64
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0 // NaN
}

// Below is Bool for a probability already turned into t = Threshold(p): a
// caller drawing many coins of one probability converts it once, and each
// coin is one comparison of integers.
func (s *Source) Below(t uint64) bool {
	if t >= 1<<53 {
		return t == 1<<53
	}
	return s.Uint64()>>11 < t
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
