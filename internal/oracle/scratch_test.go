package oracle_test

import (
	"reflect"
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/oracle"
	"topkmon/internal/rngx"
)

// TestComputeIntoMatchesCompute reuses one dirty Scratch across hundreds of
// randomized (n, k, ε, values) cases and asserts the result is identical to
// a fresh Compute each time — the scratch-reuse equivalence property the
// zero-allocation hot path depends on.
func TestComputeIntoMatchesCompute(t *testing.T) {
	r := rngx.New(42)
	var sc oracle.Scratch
	epsilons := []eps.Eps{eps.Zero, eps.MustNew(1, 8), eps.MustNew(1, 4), eps.MustNew(1, 2)}
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(80)
		k := 1 + r.Intn(n)
		e := epsilons[r.Intn(len(epsilons))]
		vals := make([]int64, n)
		// Mix plenty of ties in (small value range half the time).
		span := int64(1 << 30)
		if r.Bool(0.5) {
			span = 8
		}
		for i := range vals {
			vals[i] = r.Int63n(span)
		}
		want := oracle.Compute(vals, k, e)
		got := oracle.ComputeInto(&sc, vals, k, e)
		assertTruthEqual(t, trial, want, got)
	}
}

// TestComputeIntoFallbackSort covers the comparator fallback for values the
// packed-key sort cannot represent (above eps.MaxValue).
func TestComputeIntoFallbackSort(t *testing.T) {
	r := rngx.New(7)
	var sc oracle.Scratch
	e := eps.MustNew(1, 8)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		k := 1 + r.Intn(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = eps.MaxValue + r.Int63n(1<<20)
		}
		want := oracle.Compute(vals, k, e)
		got := oracle.ComputeInto(&sc, vals, k, e)
		assertTruthEqual(t, trial, want, got)
	}
}

func assertTruthEqual(t *testing.T, trial int, want, got oracle.Truth) {
	t.Helper()
	if !reflect.DeepEqual(want.Order, got.Order) {
		t.Fatalf("trial %d: Order mismatch\nwant %v\ngot  %v", trial, want.Order, got.Order)
	}
	if want.VK != got.VK {
		t.Fatalf("trial %d: VK %d != %d", trial, got.VK, want.VK)
	}
	if !sameIDs(want.Clearly, got.Clearly) {
		t.Fatalf("trial %d: Clearly mismatch\nwant %v\ngot  %v", trial, want.Clearly, got.Clearly)
	}
	if !sameIDs(want.Neighborhood, got.Neighborhood) {
		t.Fatalf("trial %d: Neighborhood mismatch\nwant %v\ngot  %v", trial, want.Neighborhood, got.Neighborhood)
	}
	if want.Sigma != got.Sigma {
		t.Fatalf("trial %d: Sigma %d != %d", trial, got.Sigma, want.Sigma)
	}
	// The validators must agree on the exact top-k output…
	out := want.TopK()
	if w, g := want.ValidateEps(out), got.ValidateEps(out); (w == nil) != (g == nil) {
		t.Fatalf("trial %d: ValidateEps diverges: %v vs %v", trial, w, g)
	}
	if w, g := want.ValidateExact(out), got.ValidateExact(out); (w == nil) != (g == nil) {
		t.Fatalf("trial %d: ValidateExact diverges: %v vs %v", trial, w, g)
	}
	// …and on a deliberately wrong output (duplicate first id when k > 1).
	if len(out) > 1 {
		bad := append([]int(nil), out...)
		bad[len(bad)-1] = bad[0]
		if w, g := want.ValidateEps(bad), got.ValidateEps(bad); (w == nil) != (g == nil) {
			t.Fatalf("trial %d: ValidateEps(bad) diverges: %v vs %v", trial, w, g)
		}
	}
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
