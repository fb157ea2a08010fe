package offline

import (
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/oracle"
	"topkmon/internal/rngx"
)

// TestPlanFiltersSufficiency is the Lemma 2.5 sufficiency check: for every
// greedy segment of random instances, the Proposition 2.4 two-filter
// deployment must (a) contain every node's value at every step of the
// segment, (b) form a valid filter set per Observation 2.2, and (c) make
// the segment's witness a valid ε-output at every step. Together these
// certify that the offline optimum we price is genuinely realisable.
func TestPlanFiltersSufficiency(t *testing.T) {
	rng := rngx.New(99)
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(6)
		k := 1 + rng.Intn(n)
		T := 5 + rng.Intn(25)
		e := eps.MustNew(int64(rng.Intn(6)), 8)
		matrix := make([][]int64, T)
		cur := make([]int64, n)
		for i := range cur {
			cur[i] = 50 + rng.Int63n(300)
		}
		for tt := range matrix {
			row := make([]int64, n)
			for i := range row {
				cur[i] += rng.Int63n(81) - 40
				if cur[i] < 0 {
					cur[i] = 0
				}
				row[i] = cur[i]
			}
			matrix[tt] = row
		}
		inst, err := NewInstance(matrix, k, e)
		if err != nil {
			t.Fatal(err)
		}
		res := inst.Solve()
		for _, seg := range res.Segments {
			fOut, fRest := inst.PlanFilters(seg)
			inS := map[int]bool{}
			for _, id := range seg.Out {
				inS[id] = true
			}
			for tt := seg.From; tt <= seg.To; tt++ {
				row := matrix[tt]
				filters := make([]filter.Interval, n)
				for i := range filters {
					if inS[i] {
						filters[i] = fOut
					} else {
						filters[i] = fRest
					}
				}
				// (a) containment.
				for i, v := range row {
					if !filters[i].Contains(v) {
						t.Fatalf("trial %d seg [%d,%d] step %d: node %d value %d outside %v",
							trial, seg.From, seg.To, tt, i, v, filters[i])
					}
				}
				// (b) Observation 2.2 validity.
				if k < n && !filter.SetValid(row, filters, inS, e) {
					t.Fatalf("trial %d seg [%d,%d] step %d: filter set invalid",
						trial, seg.From, seg.To, tt)
				}
				// (c) output validity.
				truth := oracle.Compute(row, k, e)
				if err := truth.ValidateEps(seg.Out); err != nil {
					t.Fatalf("trial %d seg [%d,%d] step %d: witness invalid: %v",
						trial, seg.From, seg.To, tt, err)
				}
			}
		}
	}
}

// TestPlanFiltersKEqualsN: the degenerate all-output segment.
func TestPlanFiltersKEqualsN(t *testing.T) {
	inst, err := NewInstance([][]int64{{5, 3}, {9, 1}}, 2, eps.Zero)
	if err != nil {
		t.Fatal(err)
	}
	res := inst.Solve()
	if len(res.Segments) != 1 {
		t.Fatalf("segments = %d", len(res.Segments))
	}
	fOut, _ := inst.PlanFilters(res.Segments[0])
	for _, row := range inst.Values {
		for _, v := range row {
			if !fOut.Contains(v) {
				t.Fatalf("value %d outside all-output filter %v", v, fOut)
			}
		}
	}
}

// PlanFilters materialises the Proposition 2.4 two-filter deployment for a
// solved segment: the output side holds F₁ = [MIN_S(seg), ∞], everyone else
// F₂ = [0, MAX_S̄(seg)]. By Lemma 2.5's characterisation these filters are
// valid at every step of the segment and the output never needs to change —
// TestPlanFiltersSufficiency verifies both against the oracle.
func (in *Instance) PlanFilters(seg Segment) (fOut, fRest filter.Interval) {
	inS := make(map[int]bool, len(seg.Out))
	for _, id := range seg.Out {
		inS[id] = true
	}
	minS := int64(1) << 62
	maxR := int64(0)
	for t := seg.From; t <= seg.To; t++ {
		for i, v := range in.Values[t] {
			if inS[i] {
				if v < minS {
					minS = v
				}
			} else if v > maxR {
				maxR = v
			}
		}
	}
	if len(seg.Out) == len(in.Values[0]) {
		return filter.AtLeast(0), filter.AtMost(0)
	}
	return filter.AtLeast(minS), filter.AtMost(maxR)
}
