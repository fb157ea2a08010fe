package wire

import (
	"testing"

	"topkmon/internal/filter"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	seen := map[string]bool{}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if seen[k.String()] {
			t.Errorf("duplicate kind name %q", k.String())
		}
		seen[k.String()] = true
	}
}

func TestTagStrings(t *testing.T) {
	seen := map[string]bool{}
	for tg := Tag(0); tg < NumTags; tg++ {
		s := tg.String()
		if s == "" || seen[s] {
			t.Errorf("tag %d name %q invalid or duplicate", tg, s)
		}
		seen[s] = true
	}
}

func TestFilterRuleApply(t *testing.T) {
	r := new(FilterRule).
		With(TagOut, filter.AtLeast(50)).
		With(TagRest, filter.AtMost(50))
	tag, f := r.Apply(TagOut, filter.All)
	if tag != TagOut || f != filter.AtLeast(50) {
		t.Errorf("Apply(TagOut) = %v, %v", tag, f)
	}
	// Undefined tag keeps its filter.
	tag, f = r.Apply(TagV1, filter.Make(1, 2))
	if tag != TagV1 || f != filter.Make(1, 2) {
		t.Errorf("undefined tag changed: %v %v", tag, f)
	}
}

func TestFilterRuleRetagThenFilter(t *testing.T) {
	r := new(FilterRule).
		WithRetag(TagV2S2, TagV2).
		With(TagV2, filter.Make(10, 20))
	tag, f := r.Apply(TagV2S2, filter.All)
	if tag != TagV2 {
		t.Errorf("retag failed: %v", tag)
	}
	if f != filter.Make(10, 20) {
		t.Errorf("filter must follow the NEW tag, got %v", f)
	}
}

func TestFilterRuleNilSafe(t *testing.T) {
	var r *FilterRule
	tag, f := r.Apply(TagV1, filter.Make(3, 4))
	if tag != TagV1 || f != filter.Make(3, 4) {
		t.Error("nil rule must be identity")
	}
}

func TestPredConstructors(t *testing.T) {
	if p := Violating(); p.Kind != PredViolating {
		t.Error("Violating constructor")
	}
	if p := AboveActive(7); p.Kind != PredAboveActive || p.X != 7 || p.Y != 1<<63-1 {
		t.Error("AboveActive constructor")
	}
	if p := AboveBest(Report{ID: 4, Value: 7}); p.Kind != PredAboveActive || p.X != 7 || p.Y != 4 {
		t.Error("AboveBest constructor")
	}
	if p := InRange(3, 9); p.Kind != PredInRange || p.X != 3 || p.Y != 9 {
		t.Error("InRange constructor")
	}
	if p := HasTag(TagV2); p.Kind != PredHasTag || p.Tag != TagV2 {
		t.Error("HasTag constructor")
	}
}

// TestAbove pins the max-find order: value first, then id.
func TestAbove(t *testing.T) {
	for _, c := range []struct {
		v, id, x, y int64
		want        bool
	}{
		{8, 0, 7, 9, true}, {7, 10, 7, 9, true}, {7, 9, 7, 9, false},
		{7, 8, 7, 9, false}, {6, 99, 7, 9, false}, {0, 0, -1, 1<<63 - 1, true},
	} {
		if got := Above(c.v, c.id, c.x, c.y); got != c.want {
			t.Errorf("Above(%d, %d, %d, %d) = %v", c.v, c.id, c.x, c.y, got)
		}
	}
}

// TestPredBounds pins the value-interval contract the engines' index
// routing relies on: the interval must be a NECESSARY condition (a value
// outside it never matches), and ok=false exactly for the state-decided
// predicates.
func TestPredBounds(t *testing.T) {
	if lo, hi, ok := InRange(30, 50).Bounds(); !ok || lo != 30 || hi != 50 {
		t.Errorf("InRange bounds = [%d,%d] ok=%v", lo, hi, ok)
	}
	if lo, _, ok := AboveActive(7).Bounds(); !ok || lo != 8 {
		t.Errorf("AboveActive bounds lo = %d ok=%v", lo, ok)
	}
	// AboveActive(-1) (FindMax's unbounded first run) must yield a bound
	// starting at 0: the value bounds prune nothing there, which is why
	// the engines serve the predicate from their max-find active list.
	if lo, _, ok := AboveActive(-1).Bounds(); !ok || lo != 0 {
		t.Errorf("AboveActive(-1) lo = %d ok=%v", lo, ok)
	}
	// A tie of best's value with a larger id matches AboveBest(best).
	if lo, _, ok := AboveBest(Report{ID: 4, Value: 7}).Bounds(); !ok || lo != 7 {
		t.Errorf("AboveBest bounds lo = %d ok=%v", lo, ok)
	}
	if lo, hi, ok := AboveActive(1<<63 - 1).Bounds(); !ok || lo <= hi {
		t.Errorf("AboveActive(max) must be an empty interval, got [%d,%d]", lo, hi)
	}
	if _, _, ok := Violating().Bounds(); ok {
		t.Error("Violating must not expose bounds (filter-decided)")
	}
	if _, _, ok := HasTag(TagV2).Bounds(); ok {
		t.Error("HasTag must not expose bounds (tag-decided)")
	}
}

func TestMsgBitsWithinModelBound(t *testing.T) {
	// The model allows c·(log n + log Δ) bits; check a generous c.
	const c = 24
	for _, n := range []int{2, 64, 1 << 16} {
		for _, maxV := range []int64{2, 1 << 20, 1 << 40} {
			bound := c * (IDBits(n) + ValueBits(maxV))
			for k := Kind(0); int(k) < NumKinds; k++ {
				if got := MsgBits(k, n, maxV); got > bound {
					t.Errorf("kind %v n=%d Δ=%d: %d bits > bound %d", k, n, maxV, got, bound)
				}
				if MsgBits(k, n, maxV) <= 0 {
					t.Errorf("kind %v: non-positive size", k)
				}
			}
		}
	}
}

func TestBitsHelpers(t *testing.T) {
	if IDBits(1) != 1 || IDBits(2) != 1 || IDBits(1024) != 10 {
		t.Error("IDBits wrong")
	}
	if ValueBits(1) != 1 || ValueBits(1<<20) != 21 {
		t.Errorf("ValueBits wrong: %d", ValueBits(1<<20))
	}
}
