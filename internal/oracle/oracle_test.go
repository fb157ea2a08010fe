package oracle

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"topkmon/internal/eps"
	"topkmon/internal/rngx"
)

// TopK returns the exact top-k node ids (identifier tie-break), sorted by
// id: the output a correct exact monitor gives, for the tests of this
// package.
func (t Truth) TopK() []int {
	out := append([]int(nil), t.Order[:t.K]...)
	slices.Sort(out)
	return out
}

func TestComputeKnownExample(t *testing.T) {
	// Values: id0=100 id1=95 id2=80 id3=50 id4=10; k=2; ε=1/4.
	// v_k = 95; E = (126.67, ∞) → none; A = [71.25, 126.67] → {0,1,2}.
	e := eps.MustNew(1, 4)
	tr := Compute([]int64{100, 95, 80, 50, 10}, 2, e)
	if tr.VK != 95 {
		t.Errorf("VK = %d", tr.VK)
	}
	if len(tr.Clearly) != 0 {
		t.Errorf("Clearly = %v", tr.Clearly)
	}
	if !reflect.DeepEqual(tr.Neighborhood, []int{0, 1, 2}) {
		t.Errorf("Neighborhood = %v", tr.Neighborhood)
	}
	if tr.Sigma != 3 {
		t.Errorf("Sigma = %d", tr.Sigma)
	}
	if !reflect.DeepEqual(tr.TopK(), []int{0, 1}) {
		t.Errorf("TopK = %v", tr.TopK())
	}
}

func TestIdentifierTieBreak(t *testing.T) {
	tr := Compute([]int64{50, 50, 50}, 2, eps.Zero)
	if !reflect.DeepEqual(tr.TopK(), []int{0, 1}) {
		t.Errorf("tie-break TopK = %v", tr.TopK())
	}
}

func TestValidateEpsAcceptsNeighborhoodSwap(t *testing.T) {
	e := eps.MustNew(1, 4)
	// 100, 95, 90, 10: k=2 → v_k=95, A ∋ {100, 95, 90}. Output {0,2}
	// (swapping 95 for 90) is legal.
	tr := Compute([]int64{100, 95, 90, 10}, 2, e)
	if err := tr.ValidateEps([]int{0, 2}); err != nil {
		t.Errorf("neighborhood swap rejected: %v", err)
	}
	if err := tr.ValidateEps([]int{0, 1}); err != nil {
		t.Errorf("exact top-k rejected: %v", err)
	}
	// Output containing the clearly-low node 3 is invalid.
	if err := tr.ValidateEps([]int{0, 3}); err == nil {
		t.Error("clearly-low node accepted")
	}
}

func TestValidateEpsRequiresClearlyAbove(t *testing.T) {
	e := eps.MustNew(1, 4)
	// 1000 is clearly above v_k=95 (95/0.75 ≈ 126.7): must be in output.
	tr := Compute([]int64{1000, 95, 94, 93}, 2, e)
	if err := tr.ValidateEps([]int{1, 2}); err == nil {
		t.Error("output missing a clearly-above node accepted")
	}
	if err := tr.ValidateEps([]int{0, 2}); err != nil {
		t.Errorf("legal output rejected: %v", err)
	}
}

func TestValidateEpsSizeAndDuplicates(t *testing.T) {
	tr := Compute([]int64{5, 4, 3}, 2, eps.MustNew(1, 2))
	if err := tr.ValidateEps([]int{0}); err == nil {
		t.Error("wrong-size output accepted")
	}
	if err := tr.ValidateEps([]int{0, 0}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if err := tr.ValidateEps([]int{0, 9}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestValidateExact(t *testing.T) {
	tr := Compute([]int64{9, 8, 7, 6}, 2, eps.Zero)
	if err := tr.ValidateExact([]int{0, 1}); err != nil {
		t.Errorf("exact top-k rejected: %v", err)
	}
	if err := tr.ValidateExact([]int{0, 2}); err == nil {
		t.Error("wrong set accepted as exact")
	}
}

// TestExactTopKAlwaysValidEps: the exact top-k satisfies the ε-relaxation
// for every ε — a structural property the protocols rely on.
func TestExactTopKAlwaysValidEps(t *testing.T) {
	rng := rngx.New(5)
	prop := func(seed uint64) bool {
		r := rng.Child(seed)
		n := 2 + r.Intn(12)
		k := 1 + r.Intn(n)
		e := eps.MustNew(int64(r.Intn(9)), 10)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(1000)
		}
		tr := Compute(vals, k, e)
		return tr.ValidateEps(tr.TopK()) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestClearlySubsetOfTopK: |E(t)| < k always (at most k-1 nodes can be
// clearly above the k-th largest).
func TestClearlyFewerThanK(t *testing.T) {
	rng := rngx.New(6)
	prop := func(seed uint64) bool {
		r := rng.Child(seed)
		n := 2 + r.Intn(12)
		k := 1 + r.Intn(n)
		e := eps.MustNew(int64(r.Intn(9)), 10)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(100)
		}
		return len(Compute(vals, k, e).Clearly) < k
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestComputePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 must panic")
		}
	}()
	Compute([]int64{1, 2}, 0, eps.Zero)
}
