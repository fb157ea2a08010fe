package eps

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		num, den int64
		ok       bool
	}{
		{1, 2, true}, {0, 1, true}, {3, 4, true}, {1, MaxDen, true},
		{1, 0, false}, {-1, 2, false}, {2, 2, false}, {3, 2, false},
		{1, MaxDen + 1, false}, {1, -5, false},
	}
	for _, c := range cases {
		_, err := New(c.num, c.den)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d): err=%v, want ok=%v", c.num, c.den, err, c.ok)
		}
	}
}

func TestNewReduces(t *testing.T) {
	e := MustNew(2, 4)
	if e.Num != 1 || e.Den != 2 {
		t.Errorf("New(2,4) = %v, want 1/2", e)
	}
}

func TestZeroValueBehavesAsZeroEps(t *testing.T) {
	var e Eps
	if !e.IsZero() {
		t.Error("zero value should be ε=0")
	}
	if e.ClearlyAbove(5, 5) {
		t.Error("with ε=0, 5 is not clearly above 5")
	}
	if !e.ClearlyAbove(6, 5) {
		t.Error("with ε=0, 6 is clearly above 5")
	}
	if !e.ClearlyBelow(4, 5) {
		t.Error("with ε=0, 4 is clearly below 5")
	}
	if e.GrowFloor(7) != 7 || e.ShrinkFloor(7) != 7 {
		t.Error("ε=0 scalers must be identity")
	}
}

func TestPredicatesKnownValues(t *testing.T) {
	e := MustNew(1, 4) // ε = 0.25, 1-ε = 0.75
	// ref = 100: E = (133.33, ∞), A = [75, 133.33]
	if !e.ClearlyAbove(134, 100) || e.ClearlyAbove(133, 100) {
		t.Error("ClearlyAbove boundary wrong around 133.33")
	}
	if !e.ClearlyBelow(74, 100) || e.ClearlyBelow(75, 100) {
		t.Error("ClearlyBelow boundary wrong around 75")
	}
	if e.ShrinkFloor(100) != 75 || e.ShrinkCeil(100) != 75 {
		t.Error("(1-ε)·100 should be exactly 75")
	}
	if e.GrowFloor(100) != 133 {
		t.Errorf("⌊100/(1-ε)⌋ = %d, want 133", e.GrowFloor(100))
	}
}

func TestHalf(t *testing.T) {
	if h := MustNew(1, 2).Half(); h.Num != 1 || h.Den != 4 {
		t.Errorf("(1/2)/2 = %v, want 1/4", h)
	}
	if h := MustNew(2, 5).Half(); h.Num != 1 || h.Den != 5 {
		t.Errorf("(2/5)/2 = %v, want 1/5", h)
	}
}

func TestFilterCompatible(t *testing.T) {
	e := MustNew(1, 4)
	// ℓ ≥ 0.75·u
	if !e.FilterCompatible(75, 100) {
		t.Error("75 ≥ 0.75·100 must hold")
	}
	if e.FilterCompatible(74, 100) {
		t.Error("74 ≥ 0.75·100 must not hold")
	}
}

// TestPredicatesAgreeWithFloat cross-checks the exact integer predicates
// against float arithmetic away from the boundary.
func TestPredicatesAgreeWithFloat(t *testing.T) {
	e := MustNew(3, 17)
	f := float64(e.Num) / float64(e.Den)
	check := func(v, ref int64) bool {
		v, ref = clampProp(v), clampProp(ref)
		fAbove := float64(v)*(1-f) > float64(ref)*1.0000001
		fBelow := float64(v)*1.0000001 < float64(ref)*(1-f)
		// Only assert when float is confidently away from the boundary.
		gap := math.Abs(float64(v)*(1-f) - float64(ref))
		if gap < 1 {
			return true
		}
		gap2 := math.Abs(float64(v) - float64(ref)*(1-f))
		if gap2 < 1 {
			return true
		}
		if fAbove != e.ClearlyAbove(v, ref) {
			return false
		}
		fBelowExact := e.ClearlyBelow(v, ref)
		return fBelow == fBelowExact
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestScalersAreConservative: filter endpoints built with GrowFloor always
// satisfy the Observation 2.2 compatibility with their source.
func TestScalersAreConservative(t *testing.T) {
	e := MustNew(2, 7)
	prop := func(x int64) bool {
		x = clampProp(x)
		u := e.GrowFloor(x)
		return e.FilterCompatible(x, u) // x ≥ (1-ε)·u must hold exactly
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestShrinkGrowOrdering: ShrinkFloor ≤ ShrinkCeil ≤ x ≤ GrowFloor.
func TestShrinkGrowOrdering(t *testing.T) {
	e := MustNew(5, 13)
	prop := func(x int64) bool {
		x = clampProp(x)
		sf, sc := e.ShrinkFloor(x), e.ShrinkCeil(x)
		return sf <= sc && sc <= x && x <= e.GrowFloor(x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestRegionsPartition: no value is both clearly above and clearly below
// ref, so E(t), the ε-neighborhood and the values clearly below partition
// the value space.
func TestRegionsPartition(t *testing.T) {
	e := MustNew(1, 3)
	prop := func(v, ref int64) bool {
		v, ref = clampProp(v), clampProp(ref)
		return !e.ClearlyAbove(v, ref) || !e.ClearlyBelow(v, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	if s := MustNew(1, 4).String(); s != "1/4" {
		t.Errorf("String() = %q", s)
	}
	var z Eps
	if s := z.String(); s != "0/1" {
		t.Errorf("zero String() = %q", s)
	}
}

// clampProp maps arbitrary quick-generated int64s into the supported value
// range.
func clampProp(x int64) int64 {
	if x < 0 {
		x = -x
	}
	return x % (MaxValue + 1)
}
