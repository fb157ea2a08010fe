package rngx_test

import (
	"math"
	"testing"

	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
)

// unxorshift inverts z ^= z >> s.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for i := uint(0); i < 64; i += s {
		x = z ^ x>>s
	}
	return x
}

// inverse returns the multiplicative inverse of an odd c modulo 2⁶⁴ (each
// Newton step doubles the correct low bits, from 3).
func inverse(c uint64) uint64 {
	x := c
	for range 5 {
		x *= 2 - c*x
	}
	return x
}

// stateFor returns the state whose next Uint64 is u: splitmix64's output
// function is a bijection, inverted here step by step.
func stateFor(t testing.TB, u uint64) uint64 {
	z := unxorshift(u, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	state := unxorshift(z, 30) - 0x9e3779b97f4a7c15
	if got := rngx.New(state).Uint64(); got != u {
		t.Fatalf("stateFor(%#x) draws %#x next", u, got)
	}
	return state
}

// checkCoin asserts that Below(Threshold(p)) is Bool(p) from state: the same
// result and the same state after.
func checkCoin(t testing.TB, state uint64, p float64) {
	a, b := rngx.New(state), rngx.New(state)
	want := a.Bool(p)
	if got := b.Below(rngx.Threshold(p)); got != want || *a != *b {
		t.Fatalf("state %#x, p %v (threshold %d): Below %v, Bool %v; states equal after: %v",
			state, p, rngx.Threshold(p), got, want, *a == *b)
	}
}

// checkProb checks p from the given random states and, for p in (0, 1),
// from the two states whose draws straddle the threshold: top 53 bits t-1
// (Bool's last true) and t (its first false), low bits from low.
func checkProb(t testing.TB, p float64, low uint64, states ...uint64) {
	for _, s := range states {
		checkCoin(t, s, p)
	}
	if p > 0 && p < 1 {
		th := rngx.Threshold(p)
		low &= 1<<11 - 1
		checkCoin(t, stateFor(t, (th-1)<<11|low), p)
		checkCoin(t, stateFor(t, th<<11|low), p)
	}
}

// TestBelowMatchesBool: every probability an EXISTENCE round draws with,
// ExistenceProb(r, n) for n up to 2²⁰ and r < γ, gives the same coin
// through Threshold and Below as through Bool — from random states and at
// the boundary of the threshold — and so do the edges: probabilities just
// above 0 and just below 1, 0 and 1 themselves, values outside [0, 1] and
// NaN, each over many seeds.
func TestBelowMatchesBool(t *testing.T) {
	seeds := rngx.New(2024)
	maxN := 1 << 20
	if testing.Short() {
		maxN = 1 << 14
	}
	for n := 2; n <= maxN; n++ {
		for r := range nodecore.ExistenceRounds(n) {
			checkProb(t, nodecore.ExistenceProb(r, n), seeds.Uint64(), seeds.Uint64(), seeds.Uint64())
		}
	}
	edges := []float64{
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-53, 0x1p-52, 0x1.8p-53,
		math.Nextafter(1, 0), math.Nextafter(math.Nextafter(1, 0), 0), 0.5, 1.0 / 3,
		0, math.Copysign(0, -1), 1, -1, 2, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, p := range edges {
		for range 1000 {
			checkProb(t, p, seeds.Uint64(), seeds.Uint64())
		}
	}
}

// FuzzThreshold checks Below(Threshold(p)) against Bool(p) for an arbitrary
// state and probability, and at the two states straddling the threshold.
func FuzzThreshold(f *testing.F) {
	f.Add(uint64(0), 0.5)
	f.Add(uint64(1), math.SmallestNonzeroFloat64)
	f.Add(uint64(7), math.Nextafter(1, 0))
	f.Add(uint64(42), 1.0/1024)
	f.Add(uint64(3), 1.0)
	f.Add(uint64(9), 0.0)
	f.Add(uint64(5), math.NaN())
	f.Add(uint64(11), math.Inf(-1))
	f.Fuzz(func(t *testing.T, state uint64, p float64) {
		checkProb(t, p, state, state)
	})
}
