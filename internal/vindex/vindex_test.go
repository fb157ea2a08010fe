package vindex

import (
	"slices"
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/rngx"
)

// checkInvariants verifies the full structural contract of the index
// against a reference value vector: segment boundaries are monotone, every
// id appears exactly once in ids, pos/bkt agree with the layout, and
// each id sits in the bucket BucketOf(values[id]) demands.
func checkInvariants(t *testing.T, ix *Index, base int, values []int64) {
	t.Helper()
	if len(ix.g.ids) != len(values) {
		t.Fatalf("index holds %d ids, want %d", len(ix.g.ids), len(values))
	}
	prev := int32(0)
	for b, s := range ix.g.start {
		if s < prev || int(s) > len(ix.g.ids) {
			t.Fatalf("start[%d] = %d not monotone in [0, %d]", b, s, len(ix.g.ids))
		}
		prev = s
	}
	if ix.g.start[0] != 0 || ix.g.start[len(ix.g.start)-1] != int32(len(ix.g.ids)) {
		t.Fatalf("start endpoints = %d, %d", ix.g.start[0], ix.g.start[len(ix.g.start)-1])
	}
	seen := make(map[int32]bool, len(ix.g.ids))
	for b := 0; b+1 < len(ix.g.start); b++ {
		for p := ix.g.start[b]; p < ix.g.start[b+1]; p++ {
			id := ix.g.ids[p]
			if seen[id] {
				t.Fatalf("id %d appears twice in ids", id)
			}
			seen[id] = true
			i := int(id) - base
			if i < 0 || i >= len(values) {
				t.Fatalf("foreign id %d (base %d, n %d)", id, base, len(values))
			}
			if ix.g.pos[i] != p {
				t.Fatalf("pos[%d] = %d, ids has it at %d", i, ix.g.pos[i], p)
			}
			if int(ix.bkt[i]) != b {
				t.Fatalf("bkt[%d] = %d, ids places it in %d", i, ix.bkt[i], b)
			}
			if want := BucketOf(values[i]); want != b {
				t.Fatalf("id %d value %d in bucket %d, want %d", id, values[i], b, want)
			}
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {eps.MaxValue, numBuckets - 1},
		{eps.MaxValue * 8, numBuckets - 1}, // query endpoints clamp
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFullRange(t *testing.T) {
	if !FullRange(0, eps.MaxValue) || !FullRange(-3, 1<<62) {
		t.Error("domain-covering intervals must report full range")
	}
	if FullRange(1, 1<<62) || FullRange(0, eps.MaxValue-1) {
		t.Error("proper sub-intervals must not report full range")
	}
}

// TestIndexRandomUpdates drives the index with random value assignments —
// including magnitude jumps across many buckets — and checks the structural
// invariants and span correctness after every batch.
func TestIndexRandomUpdates(t *testing.T) {
	const n, base, rounds = 97, 1000, 60
	r := rngx.New(42)
	ix := New(base, n)
	values := make([]int64, n)
	checkInvariants(t, ix, base, values)

	for round := 0; round < rounds; round++ {
		for upd := 0; upd < n/3; upd++ {
			i := r.Intn(n)
			// Mix magnitudes: tiny, mid, and near-domain-max values.
			var v int64
			switch r.Intn(4) {
			case 0:
				v = r.Int63n(4) // 0..3: buckets 0..2
			case 1:
				v = r.Int63n(1 << 12)
			case 2:
				v = r.Int63n(1 << 30)
			default:
				v = eps.MaxValue - r.Int63n(1<<20)
			}
			values[i] = v
			ix.Update(base+i, v)
		}
		checkInvariants(t, ix, base, values)

		// Span must contain every id whose value is in [lo, hi] (the
		// necessary-condition direction the engines rely on).
		lo := r.Int63n(1 << 32)
		hi := lo + r.Int63n(1<<32)
		span := ix.Span(lo, hi)
		got := make(map[int32]bool, len(span))
		for _, id := range span {
			got[id] = true
		}
		for i, v := range values {
			if v >= lo && v <= hi && !got[int32(base+i)] {
				t.Fatalf("round %d: id %d value %d in [%d,%d] missing from span",
					round, base+i, v, lo, hi)
			}
		}
		// And nothing outside the bucket coarsening of [lo, hi].
		bLo, bHi := BucketOf(lo), BucketOf(hi)
		for _, id := range span {
			b := BucketOf(values[int(id)-base])
			if b < bLo || b > bHi {
				t.Fatalf("round %d: span leaked id %d from bucket %d outside [%d,%d]",
					round, id, b, bLo, bHi)
			}
		}
	}

	// Reset rebuckets everything to value 0.
	ix.Reset()
	for i := range values {
		values[i] = 0
	}
	checkInvariants(t, ix, base, values)
}

func TestSpanEdges(t *testing.T) {
	ix := New(0, 8)
	for i := 0; i < 8; i++ {
		ix.Update(i, int64(1)<<i) // values 1,2,4,...,128: buckets 1..8
	}
	if got := ix.Span(5, 4); got != nil {
		t.Errorf("empty interval span = %v, want nil", got)
	}
	if got := len(ix.Span(0, eps.MaxValue)); got != 8 {
		t.Errorf("full-domain span has %d ids, want 8", got)
	}
	// [4, 7] is exactly bucket 3: only value 4 lives there.
	if got := ix.Span(4, 7); len(got) != 1 || got[0] != 2 {
		t.Errorf("span(4,7) = %v, want [2]", got)
	}
}

func TestAppendSortedOrdersAndReuses(t *testing.T) {
	const n = 64
	ix := New(0, n)
	r := rngx.New(7)
	for i := 0; i < n; i++ {
		ix.Update(i, r.Int63n(1<<20))
	}
	buf := make([]int32, 0, n)
	got := ix.AppendSorted(buf[:0], 1, 1<<20)
	if !slices.IsSorted(got) {
		t.Fatalf("AppendSorted not ascending: %v", got)
	}
	// Same contents as Span, order aside.
	span := append([]int32(nil), ix.Span(1, 1<<20)...)
	slices.Sort(span)
	if !slices.Equal(got, span) {
		t.Fatalf("AppendSorted = %v, span sorted = %v", got, span)
	}
}

// valueIn returns a random value of bucket b, within [0, eps.MaxValue].
func valueIn(r *rngx.Source, b int) int64 {
	if b == 0 {
		return 0
	}
	lo := int64(1) << (b - 1)
	return min(lo+r.Int63n(lo), eps.MaxValue)
}

// TestSettleMatchesPerUpdate drives one index in batches (Stage per change,
// Settle per batch) whose summed bucket distance lands below, exactly at,
// just above and far above the budget of n, and a reference index by
// single Updates, each of which stays within the budget. After every batch
// the two must hold the same buckets as sets (an index past its budget in
// ascending id order), a layout whose pos inverts ids, and the same Span
// and AppendSorted over random intervals; and the batch must have been
// regrouped exactly when it ran past the budget.
func TestSettleMatchesPerUpdate(t *testing.T) {
	const n, base, rounds = 97, 300, 40
	r := rngx.New(11)
	ix, ref := New(base, n), New(base, n)
	values := make([]int64, n)
	for round := range rounds {
		total := []int{n / 2, n, n + 1, 5 * n}[round%4]
		for spent := 0; spent < total; {
			i := r.Intn(n)
			cur := int(ref.bkt[i])
			lo, hi := max(cur-(total-spent), 0), min(cur+(total-spent), numBuckets-1)
			b := lo + r.Intn(hi-lo+1)
			if b == cur {
				continue
			}
			spent += max(b-cur, cur-b)
			values[i] = valueIn(r, b)
			ix.Stage(base+i, values[i])
			ref.Update(base+i, values[i])
		}
		if ix.stale != (total > n) {
			t.Fatalf("round %d: a batch of distance %d against a budget of %d left stale = %v", round, total, n, ix.stale)
		}
		regrouped := ix.stale
		ix.Settle()
		checkInvariants(t, ix, base, values)
		checkInvariants(t, ref, base, values)
		for b := range numBuckets {
			got := slices.Sorted(slices.Values(ix.g.Members(b, b)))
			want := slices.Sorted(slices.Values(ref.g.Members(b, b)))
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: bucket %d holds %v, the reference %v", round, b, got, want)
			}
			if regrouped && !slices.IsSorted(ix.g.Members(b, b)) {
				t.Fatalf("round %d: bucket %d after a regroup is not in id order: %v", round, b, ix.g.Members(b, b))
			}
		}
		for range 16 {
			lo := valueIn(r, r.Intn(numBuckets))
			hi := valueIn(r, r.Intn(numBuckets))
			got := slices.Sorted(slices.Values(ix.Span(lo, hi)))
			want := slices.Sorted(slices.Values(ref.Span(lo, hi)))
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: Span(%d, %d) = %v, the reference %v", round, lo, hi, got, want)
			}
			if got, want := ix.AppendSorted(nil, lo, hi), ref.AppendSorted(nil, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("round %d: AppendSorted(%d, %d) = %v, the reference %v", round, lo, hi, got, want)
			}
		}
	}
}
