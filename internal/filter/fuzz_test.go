package filter

import "testing"

// FuzzIntervalContainment cross-checks the interval algebra's membership
// invariants: Contains agrees with Violation, intersection distributes over
// membership, the clamp updates of the generic binary-search framework
// restrict exactly as specified, and halving never admits a value the
// parent interval excluded.
func FuzzIntervalContainment(f *testing.F) {
	f.Add(int64(0), int64(10), int64(5), int64(3), int64(7))
	f.Add(int64(5), int64(5), int64(5), int64(0), Inf)
	f.Add(int64(10), int64(0), int64(4), int64(1), int64(2)) // empty interval
	f.Add(int64(0), Inf, int64(1<<40), int64(0), int64(0))   // unbounded
	f.Add(int64(-3), int64(3), int64(-1), int64(-2), int64(9))
	f.Fuzz(func(t *testing.T, lo, hi, v, olo, ohi int64) {
		a, b := Make(lo, hi), Make(olo, ohi)

		if got, want := a.Contains(v), a.Violation(v) == DirNone; got != want {
			t.Fatalf("%v: Contains(%d)=%v but Violation=%v", a, v, got, a.Violation(v))
		}
		if a.Empty() && a.Contains(v) {
			t.Fatalf("empty interval %v contains %d", a, v)
		}

		if in := a.Intersect(b); in.Contains(v) != (a.Contains(v) && b.Contains(v)) {
			t.Fatalf("intersect %v ∩ %v = %v: membership of %d does not distribute", a, b, in, v)
		}

		if ca := a.ClampAbove(olo); ca.Contains(v) != (a.Contains(v) && v >= olo && v <= Inf) {
			t.Fatalf("%v.ClampAbove(%d) = %v: wrong membership of %d", a, olo, ca, v)
		}
		if cb := a.ClampBelow(ohi); cb.Contains(v) != (a.Contains(v) && v >= 0 && v <= ohi) {
			t.Fatalf("%v.ClampBelow(%d) = %v: wrong membership of %d", a, ohi, cb, v)
		}

		lh, uh := a.LowerHalf(), a.UpperHalf()
		if lh.Contains(v) && !a.Contains(v) {
			t.Fatalf("%v.LowerHalf() = %v admits excluded %d", a, lh, v)
		}
		if uh.Contains(v) && !a.Contains(v) {
			t.Fatalf("%v.UpperHalf() = %v admits excluded %d", a, uh, v)
		}
		// Halving terminates: a bounded multi-point interval shrinks
		// strictly on both sides.
		width := func(iv Interval) int64 { return iv.Hi - iv.Lo }
		if !a.Empty() && a.Hi < Inf && width(a) > 0 {
			if width(lh) >= width(a) || width(uh) >= width(a) {
				t.Fatalf("%v halves to %v / %v without shrinking", a, lh, uh)
			}
		}
	})
}
