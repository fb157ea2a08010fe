// Package eps provides exact rational arithmetic for the approximation error
// ε used throughout ε-Top-k-Position Monitoring.
//
// The paper compares observed integer values against the real thresholds
// (1-ε)·x and x/(1-ε). Representing ε as an exact rational p/q lets every
// correctness-critical predicate be decided by integer cross-multiplication,
// with no floating-point corner cases. Products stay within int64 because
// values are bounded by MaxValue and denominators by MaxDen.
package eps

import "fmt"

// MaxValue is the largest observed value supported by the exact predicates.
// With MaxDen below, all cross-multiplications fit in int64 with slack.
const MaxValue int64 = 1 << 40

// MaxDen bounds the denominator of ε so that value·den fits in int64.
const MaxDen int64 = 1 << 20

// Eps is an exact rational error ε = Num/Den with 0 ≤ Num < Den.
// The zero value is ε = 0, i.e. the exact (non-approximate) problem.
type Eps struct {
	Num int64
	Den int64
}

// Zero is the exact problem's error: ε = 0.
var Zero = Eps{Num: 0, Den: 1}

// New returns ε = num/den after validating 0 ≤ num < den ≤ MaxDen.
func New(num, den int64) (Eps, error) {
	if den <= 0 || den > MaxDen {
		return Eps{}, fmt.Errorf("eps: denominator %d out of range (0, %d]", den, MaxDen)
	}
	if num < 0 || num >= den {
		return Eps{}, fmt.Errorf("eps: ε = %d/%d outside [0, 1)", num, den)
	}
	g := gcd(num, den)
	if g == 0 {
		g = 1
	}
	return Eps{Num: num / g, Den: den / g}, nil
}

// MustNew is New but panics on invalid input; for tests and constants.
func MustNew(num, den int64) Eps {
	e, err := New(num, den)
	if err != nil {
		panic(err)
	}
	return e
}

// IsZero reports whether ε = 0 (the exact problem).
func (e Eps) IsZero() bool { return e.Num == 0 }

// String renders ε as "p/q".
func (e Eps) String() string {
	if e.Den == 0 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", e.Num, e.Den)
}

// den returns the denominator, treating the zero value as ε = 0/1.
func (e Eps) den() int64 {
	if e.Den == 0 {
		return 1
	}
	return e.Den
}

// omNum and omDen give 1-ε = omNum/omDen.
func (e Eps) om() (num, den int64) { return e.den() - e.Num, e.den() }

// Half returns ε/2 exactly (used by the Corollary 5.9 offline comparison).
func (e Eps) Half() Eps {
	n, d := e.Num, e.den()
	if n%2 == 0 {
		return Eps{Num: n / 2, Den: d}
	}
	if 2*d <= MaxDen {
		return Eps{Num: n, Den: 2 * d}
	}
	// Fall back to a floor at the precision limit; only reachable for
	// denominators near MaxDen, which New discourages.
	return Eps{Num: n / 2, Den: d}
}

// ClearlyAbove reports v > ref/(1-ε), i.e. v lies in E(t) relative to ref.
func (e Eps) ClearlyAbove(v, ref int64) bool {
	on, od := e.om()
	return v*on > ref*od
}

// ClearlyBelow reports v < (1-ε)·ref, i.e. v lies strictly below the
// ε-neighborhood A(t) of ref.
func (e Eps) ClearlyBelow(v, ref int64) bool {
	on, od := e.om()
	return v*od < ref*on
}

// ShrinkFloor returns ⌊(1-ε)·x⌋. Used for conservative lower filter
// endpoints: flooring can only loosen a lower bound on the F2 side, never
// violating Observation 2.2.
func (e Eps) ShrinkFloor(x int64) int64 {
	on, od := e.om()
	return (x * on) / od
}

// ShrinkCeil returns ⌈(1-ε)·x⌉.
func (e Eps) ShrinkCeil(x int64) int64 {
	on, od := e.om()
	return ceilDiv(x*on, od)
}

// GrowFloor returns ⌊x/(1-ε)⌋. Used for conservative upper filter endpoints:
// flooring tightens the F2 upper bound, preserving ℓ ≥ (1-ε)·u exactly.
func (e Eps) GrowFloor(x int64) int64 {
	on, od := e.om()
	if on == 0 {
		return MaxValue
	}
	return (x * od) / on
}

// FilterCompatible reports ℓ ≥ (1-ε)·u, the pairwise condition of
// Observation 2.2 between a lower endpoint ℓ of an output node's filter and
// an upper endpoint u of a non-output node's filter.
func (e Eps) FilterCompatible(l, u int64) bool {
	on, od := e.om()
	return l*od >= u*on
}

func ceilDiv(a, b int64) int64 {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return a / b
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
