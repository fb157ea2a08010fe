package filter

import (
	"testing"
	"testing/quick"

	"topkmon/internal/eps"
)

func TestContainsAndViolation(t *testing.T) {
	iv := Make(10, 20)
	cases := []struct {
		v    int64
		dir  Direction
		cont bool
	}{
		{9, DirDown, false}, {10, DirNone, true}, {15, DirNone, true},
		{20, DirNone, true}, {21, DirUp, false},
	}
	for _, c := range cases {
		if got := iv.Contains(c.v); got != c.cont {
			t.Errorf("Contains(%d) = %v", c.v, got)
		}
		if got := iv.Violation(c.v); got != c.dir {
			t.Errorf("Violation(%d) = %v, want %v", c.v, got, c.dir)
		}
	}
}

func TestUnboundedFilter(t *testing.T) {
	iv := AtLeast(5)
	if iv.Violation(1<<50) != DirNone {
		t.Error("unbounded filter must admit huge values")
	}
	if iv.Violation(4) != DirDown {
		t.Error("AtLeast must reject below Lo")
	}
	if All.Violation(0) != DirNone || All.Violation(1<<55) != DirNone {
		t.Error("All must admit everything")
	}
}

func TestIntersectAndClamp(t *testing.T) {
	iv := Make(10, 30)
	if got := iv.ClampAbove(20); got != Make(20, 30) {
		t.Errorf("ClampAbove = %v", got)
	}
	if got := iv.ClampBelow(15); got != Make(10, 15) {
		t.Errorf("ClampBelow = %v", got)
	}
	if got := iv.ClampAbove(31); !got.Empty() {
		t.Errorf("clamping past Hi should empty, got %v", got)
	}
	if got := Make(5, 7).Intersect(Make(8, 9)); !got.Empty() {
		t.Errorf("disjoint intersect should be empty, got %v", got)
	}
}

func TestHalvingRules(t *testing.T) {
	// Single point halves to empty (Section 5.2 rule).
	p := Make(7, 7)
	if !p.LowerHalf().Empty() || !p.UpperHalf().Empty() {
		t.Error("single-point halves must be empty")
	}
	// Width 1 splits into endpoints.
	w1 := Make(7, 8)
	if w1.LowerHalf() != Make(7, 7) || w1.UpperHalf() != Make(8, 8) {
		t.Errorf("width-1 halves: %v / %v", w1.LowerHalf(), w1.UpperHalf())
	}
	// Width ≥ 2: both halves include the midpoint.
	w := Make(10, 20)
	m := w.Mid()
	if !w.LowerHalf().Contains(m) || !w.UpperHalf().Contains(m) {
		t.Error("width ≥ 2 halves must include the midpoint")
	}
}

// TestHalvingTerminates: repeated halving of any interval empties it within
// log₂(width) + 2 steps, whichever halves are chosen.
func TestHalvingTerminates(t *testing.T) {
	prop := func(lo, width int64, pattern uint64) bool {
		lo = lo % (1 << 30)
		if lo < 0 {
			lo = -lo
		}
		width = width % (1 << 30)
		if width < 0 {
			width = -width
		}
		iv := Make(lo, lo+width)
		bound := 2
		for w := width; w > 0; w /= 2 {
			bound++
		}
		for i := 0; i < bound+2; i++ {
			if iv.Empty() {
				return true
			}
			if pattern&(1<<uint(i%64)) != 0 {
				iv = iv.LowerHalf()
			} else {
				iv = iv.UpperHalf()
			}
		}
		return iv.Empty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestHalvesShrinkStrictly: non-empty intervals always shrink.
func TestHalvesShrinkStrictly(t *testing.T) {
	prop := func(lo, width int64) bool {
		lo = abs64(lo) % (1 << 40)
		width = abs64(width) % (1 << 40)
		iv := Make(lo, lo+width)
		l, u := iv.LowerHalf(), iv.UpperHalf()
		return widthOf(l) < width || l.Empty() || (widthOf(l) <= width && widthOf(u) < width)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func widthOf(iv Interval) int64 {
	if iv.Empty() {
		return -1
	}
	return iv.Hi - iv.Lo
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == -x { // MinInt64
			return 0
		}
		return -x
	}
	return x
}

func TestSetValidExact(t *testing.T) {
	values := []int64{100, 90, 50, 40}
	filters := []Interval{AtLeast(70), AtLeast(70), AtMost(70), AtMost(70)}
	out := map[int]bool{0: true, 1: true}
	if !SetValid(values, filters, out, eps.Zero) {
		t.Error("clean separation at 70 must be valid")
	}
	// An out-node filter dipping below a rest-node ceiling breaks it.
	filters[0] = AtLeast(60)
	if SetValid(values, filters, out, eps.Zero) {
		t.Error("ℓ=60 < u=70 must be invalid for ε=0")
	}
	// But the same overlap is fine with ε = 1/4: 60 ≥ 0.75·70 = 52.5.
	if !SetValid(values, filters, out, eps.MustNew(1, 4)) {
		t.Error("overlap within ε-slack must be valid")
	}
}

func TestSetValidRejectsValueOutsideFilter(t *testing.T) {
	values := []int64{100, 10}
	filters := []Interval{AtLeast(70), AtMost(5)} // node 1 at 10 > 5
	if SetValid(values, filters, map[int]bool{0: true}, eps.Zero) {
		t.Error("a value outside its filter invalidates the set")
	}
}

func TestSetValidUnboundedRest(t *testing.T) {
	values := []int64{100, 10}
	filters := []Interval{AtLeast(70), All}
	if SetValid(values, filters, map[int]bool{0: true}, eps.MustNew(1, 2)) {
		t.Error("an unbounded non-output filter can never be valid")
	}
}

// TestSetValidMatchesPairwise: the aggregate check agrees with checking all
// (out, rest) pairs individually.
func TestSetValidMatchesPairwise(t *testing.T) {
	e := eps.MustNew(1, 4)
	prop := func(seed int64) bool {
		rng := seed
		next := func(mod int64) int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := rng >> 33
			if v < 0 {
				v = -v
			}
			return v % mod
		}
		n := int(2 + next(6))
		values := make([]int64, n)
		filters := make([]Interval, n)
		out := map[int]bool{}
		for i := range values {
			lo := next(1000)
			hi := lo + next(1000)
			filters[i] = Make(lo, hi)
			values[i] = lo + next(hi-lo+1)
			if next(2) == 0 {
				out[i] = true
			}
		}
		agg := SetValid(values, filters, out, e)
		pair := true
		for i := range values {
			if !filters[i].Contains(values[i]) {
				pair = false
			}
		}
		for i := range values {
			if !out[i] {
				continue
			}
			for j := range values {
				if out[j] {
					continue
				}
				if !pairValid(filters[i], filters[j], e) {
					pair = false
				}
			}
		}
		return agg == pair
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	if s := Make(3, 9).String(); s != "[3,9]" {
		t.Errorf("String = %q", s)
	}
	if s := AtLeast(3).String(); s != "[3,∞]" {
		t.Errorf("String = %q", s)
	}
	for _, d := range []Direction{DirNone, DirUp, DirDown} {
		if d.String() == "" {
			t.Error("direction must render")
		}
	}
}

// pairValid reports the pairwise Observation 2.2 condition for a single
// (output, non-output) filter pair.
func pairValid(fOut, fRest Interval, e eps.Eps) bool {
	if fRest.Hi >= Inf {
		return false
	}
	return e.FilterCompatible(fOut.Lo, fRest.Hi)
}
