// Package filter implements the interval filters of Definition 2.1 and the
// validity condition of Observation 2.2, together with the integer interval
// arithmetic used by the generic binary-search framework of Section 3.
//
// A filter is an interval [Lo, Hi] over ℕ ∪ {∞}; a node whose value leaves
// its filter "violates" it. Following the paper's (admittedly inverted)
// terminology: a value rising above Hi is a violation "from below" (DirUp
// here), a value dropping below Lo is a violation "from above" (DirDown).
package filter

import (
	"fmt"

	"topkmon/internal/eps"
)

// Inf is the representation of the unbounded upper endpoint ∞.
const Inf int64 = 1<<62 - 1

// Direction classifies a filter violation.
type Direction int8

const (
	// DirNone means the value is inside the filter.
	DirNone Direction = iota
	// DirUp is the paper's "violation from below": value > Hi.
	DirUp
	// DirDown is the paper's "violation from above": value < Lo.
	DirDown
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirNone:
		return "none"
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// Interval is a closed integer interval [Lo, Hi]; Hi = Inf means unbounded.
// The zero value is [0, 0].
type Interval struct {
	Lo int64
	Hi int64
}

// All is the filter admitting every value, [0, ∞].
var All = Interval{Lo: 0, Hi: Inf}

// Make returns [lo, hi].
func Make(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// AtLeast returns [lo, ∞].
func AtLeast(lo int64) Interval { return Interval{Lo: lo, Hi: Inf} }

// AtMost returns [0, hi].
func AtMost(hi int64) Interval { return Interval{Lo: 0, Hi: hi} }

// Contains reports v ∈ [Lo, Hi].
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v <= iv.Hi }

// Violation classifies v against the interval.
func (iv Interval) Violation(v int64) Direction {
	switch {
	case v > iv.Hi:
		return DirUp
	case v < iv.Lo:
		return DirDown
	default:
		return DirNone
	}
}

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// ClampAbove returns the interval intersected with [v, ∞] — the generic
// framework's update after an up-violation with value v.
func (iv Interval) ClampAbove(v int64) Interval { return iv.Intersect(AtLeast(v)) }

// ClampBelow returns the interval intersected with [0, v] — the update after
// a down-violation with value v.
func (iv Interval) ClampBelow(v int64) Interval { return iv.Intersect(AtMost(v)) }

// Mid returns the floored midpoint ⌊(Lo+Hi)/2⌋ of a bounded interval.
func (iv Interval) Mid() int64 { return iv.Lo + (iv.Hi-iv.Lo)/2 }

// LowerHalf returns the lower half of the interval around its midpoint.
// Halving rules (shared with UpperHalf):
//   - a single-point interval halves to an empty one, matching "in case L_r
//     contains one value and gets halved, L_{r+1} is empty" (Section 5.2);
//   - a width-1 interval splits into its two endpoints;
//   - otherwise both halves include the midpoint (the offline optimum's
//     endpoint ℓ* may equal it), yet both shrink strictly, so a width-w
//     interval dies after at most log₂w + 2 halvings.
func (iv Interval) LowerHalf() Interval {
	w := iv.Hi - iv.Lo
	switch {
	case iv.Empty() || w == 0:
		return Interval{Lo: 1, Hi: 0}
	case w == 1:
		return Interval{Lo: iv.Lo, Hi: iv.Lo}
	default:
		return Interval{Lo: iv.Lo, Hi: iv.Mid()}
	}
}

// UpperHalf returns the upper half of the interval; see LowerHalf for the
// halving rules.
func (iv Interval) UpperHalf() Interval {
	w := iv.Hi - iv.Lo
	switch {
	case iv.Empty() || w == 0:
		return Interval{Lo: 1, Hi: 0}
	case w == 1:
		return Interval{Lo: iv.Hi, Hi: iv.Hi}
	default:
		return Interval{Lo: iv.Mid(), Hi: iv.Hi}
	}
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	if iv.Hi >= Inf {
		return fmt.Sprintf("[%d,∞]", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// SetValid implements Observation 2.2: the n-tuple of intervals is a set of
// filters for output set out iff every value is inside its interval and for
// all pairs i ∈ out, j ∉ out: ℓ_i ≥ (1-ε)·u_j.
//
// values[i] is node i's current value; filters[i] its interval; out the
// output F(t) as a set of node ids; e the allowed error. No program calls
// it: it is the validity oracle of the protocol and offline tests.
func SetValid(values []int64, filters []Interval, out map[int]bool, e eps.Eps) bool {
	minLoOut := Inf
	maxHiRest := int64(-1)
	for i, f := range filters {
		if !f.Contains(values[i]) {
			return false
		}
		if out[i] {
			if f.Lo < minLoOut {
				minLoOut = f.Lo
			}
		} else {
			if f.Hi > maxHiRest {
				maxHiRest = f.Hi
			}
		}
	}
	if maxHiRest < 0 || minLoOut == Inf {
		return true // one side empty: vacuously valid
	}
	if maxHiRest >= Inf {
		return false // a non-output node with an unbounded filter can pass anyone
	}
	return e.FilterCompatible(minLoOut, maxHiRest)
}
