package items

import "sort"

// Truth is the brute-force exact-frequency ground truth: one int64 per
// item in the universe. It is the oracle the recall@k evaluator scores
// approximate monitors against, and it is deliberately trivial — an
// array and a sort — so there is nothing to trust but arithmetic.
type Truth struct {
	counts []int64
	ord    []int // scratch for Threshold
}

// NewTruth returns an exact counter over an m-item universe.
func NewTruth(items int) *Truth {
	if items < 1 {
		panic("items: NewTruth needs items >= 1")
	}
	return &Truth{counts: make([]int64, items), ord: make([]int, items)}
}

// Observe adds count arrivals of item (count <= 0 is ignored, mirroring
// the sketch Observe contract).
func (tr *Truth) Observe(item int, count int64) {
	if count <= 0 || item < 0 || item >= len(tr.counts) {
		return
	}
	tr.counts[item] += count
}

// ObserveEvents folds a whole step batch into the truth.
func (tr *Truth) ObserveEvents(evs []Event) {
	for _, e := range evs {
		tr.Observe(e.Item, e.Count)
	}
}

// rank orders the scratch index by (count descending, item ascending) —
// the same deterministic order the sketches and the monitor use.
func (tr *Truth) rank() []int {
	ord := tr.ord[:0]
	for i := range tr.counts {
		ord = append(ord, i)
	}
	sort.Slice(ord, func(a, b int) bool {
		if tr.counts[ord[a]] != tr.counts[ord[b]] {
			return tr.counts[ord[a]] > tr.counts[ord[b]]
		}
		return ord[a] < ord[b]
	})
	return ord
}

// Threshold returns the exact k-th largest count (the tie threshold):
// any item with count >= Threshold(k) is a legitimate top-k answer.
func (tr *Truth) Threshold(k int) int64 {
	if k < 1 {
		return 0
	}
	ord := tr.rank()
	if k > len(ord) {
		k = len(ord)
	}
	return tr.counts[ord[k-1]]
}

// RecallAt scores an approximate top-k answer tie-aware: an approx item
// is a hit if its exact count reaches the exact k-th largest count, so
// swapping tied items costs nothing (any of them is a correct answer —
// the convention of the heavy-hitters literature). Duplicates and
// out-of-range ids are misses; only the first k entries of approx are
// considered; the denominator is min(k, m). Returns a value in [0, 1].
func (tr *Truth) RecallAt(k int, approx []int) float64 {
	if k < 1 {
		return 1
	}
	denom := k
	if m := len(tr.counts); denom > m {
		denom = m
	}
	thr := tr.Threshold(k)
	if len(approx) > k {
		approx = approx[:k]
	}
	hits := 0
	for i, it := range approx {
		if it < 0 || it >= len(tr.counts) || tr.counts[it] < thr {
			continue
		}
		dup := false
		for _, prev := range approx[:i] {
			if prev == it {
				dup = true
				break
			}
		}
		if !dup {
			hits++
		}
	}
	return float64(hits) / float64(denom)
}
