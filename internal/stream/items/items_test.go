package items

import (
	"reflect"
	"sort"
	"testing"
)

// collect runs a generator for steps steps and returns the concatenated
// events plus the per-item exact totals.
func collect(g Generator, steps int) ([]Event, []int64) {
	var evs []Event
	counts := make([]int64, g.Items())
	for t := 0; t < steps; t++ {
		before := len(evs)
		evs = g.Next(t, evs)
		for _, e := range evs[before:] {
			counts[e.Item] += e.Count
		}
	}
	return evs, counts
}

func generators(seed uint64) []Generator {
	return []Generator{
		NewZipf(8, 64, 200, 1.1, seed),
		NewBursty(8, 64, 100, 1.1, 0.2, 5, 50, seed),
		NewChurn(8, 64, 200, 1.3, 10, seed),
	}
}

// TestDeterministicReplay pins the replay contract: the same constructor
// arguments produce byte-identical event sequences, and a different seed
// produces a different one (guarding against an ignored seed).
func TestDeterministicReplay(t *testing.T) {
	a, b := generators(7), generators(7)
	other := generators(8)
	for i := range a {
		e1, _ := collect(a[i], 40)
		e2, _ := collect(b[i], 40)
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("%s: same seed diverged", a[i].Name())
		}
		e3, _ := collect(other[i], 40)
		if reflect.DeepEqual(e1, e3) {
			t.Fatalf("%s: different seed replayed identically", a[i].Name())
		}
	}
}

// TestEventRanges checks every emitted event is in-universe with a
// positive count.
func TestEventRanges(t *testing.T) {
	for _, g := range generators(3) {
		evs, _ := collect(g, 30)
		if len(evs) == 0 {
			t.Fatalf("%s: no events", g.Name())
		}
		for _, e := range evs {
			if e.Node < 0 || e.Node >= g.Nodes() {
				t.Fatalf("%s: node %d out of [0,%d)", g.Name(), e.Node, g.Nodes())
			}
			if e.Item < 0 || e.Item >= g.Items() {
				t.Fatalf("%s: item %d out of [0,%d)", g.Name(), e.Item, g.Items())
			}
			if e.Count < 1 {
				t.Fatalf("%s: non-positive count %d", g.Name(), e.Count)
			}
		}
	}
}

// TestZipfSkew guards the workload against accidental uniformity: under
// s=1.3 the hottest item must dominate the median by a wide margin.
func TestZipfSkew(t *testing.T) {
	_, counts := collect(NewZipf(4, 64, 500, 1.3, 11), 40)
	sorted := append([]int64(nil), counts...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
	if sorted[0] < 5*max64(sorted[32], 1) {
		t.Fatalf("zipf not skewed: max %d vs median %d", sorted[0], sorted[32])
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestBurstyInjectsBursts checks bursts actually fire and route extra
// mass somewhere: with p=1 every step starts a burst, so some item must
// exceed anything the pure background could give it.
func TestBurstyInjectsBursts(t *testing.T) {
	g := NewBursty(4, 64, 10, 1.1, 1.0, 4, 100, 5)
	_, counts := collect(g, 20)
	var total int64
	for _, c := range counts {
		total += c
	}
	// Background is 10 events/step * 20 steps = 200; bursts add ~4*100 per
	// step once saturated. Anything under 2x background means bursts died.
	if total < 400 {
		t.Fatalf("bursty produced only %d total count; bursts not firing", total)
	}
}

// TestChurnRotatesHotness checks the adversarial property: the identity
// of the per-window hottest item changes across rotation periods.
func TestChurnRotatesHotness(t *testing.T) {
	g := NewChurn(4, 32, 400, 1.5, 5, 9)
	hot := map[int]bool{}
	for window := 0; window < 6; window++ {
		counts := make([]int64, g.Items())
		var evs []Event
		for t0 := 0; t0 < 5; t0++ {
			evs = g.Next(window*5+t0, evs[:0])
			for _, e := range evs {
				counts[e.Item] += e.Count
			}
		}
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		hot[best] = true
	}
	if len(hot) < 3 {
		t.Fatalf("churn kept the same hot item: only %d distinct leaders in 6 windows", len(hot))
	}
}

// bruteRecall is an independent reference implementation of tie-aware
// recall@k, written as differently as possible from Truth.RecallAt: full
// sort of (count, id) pairs, explicit tie set, set-membership hits.
func bruteRecall(counts []int64, k int, approx []int) float64 {
	type pair struct {
		item int
		cnt  int64
	}
	ps := make([]pair, len(counts))
	for i, c := range counts {
		ps[i] = pair{i, c}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].cnt != ps[b].cnt {
			return ps[a].cnt > ps[b].cnt
		}
		return ps[a].item < ps[b].item
	})
	kk := k
	if kk > len(ps) {
		kk = len(ps)
	}
	if kk == 0 {
		return 1
	}
	thr := ps[kk-1].cnt
	ok := map[int]bool{}
	for _, p := range ps {
		if p.cnt >= thr {
			ok[p.item] = true
		}
	}
	if len(approx) > k {
		approx = approx[:k]
	}
	seen := map[int]bool{}
	hits := 0
	for _, it := range approx {
		if it >= 0 && it < len(counts) && ok[it] && !seen[it] {
			hits++
			seen[it] = true
		}
	}
	return float64(hits) / float64(kk)
}

// TestRecallGoldenZipf cross-checks the evaluator against the brute-force
// reference on a real zipfian trace, for many k and many candidate
// answers (exact, rotated, partially wrong, junk ids, duplicates).
func TestRecallGoldenZipf(t *testing.T) {
	g := NewZipf(4, 48, 300, 1.1, 21)
	tr := NewTruth(48)
	var evs []Event
	for step := 0; step < 30; step++ {
		evs = g.Next(step, evs[:0])
		tr.ObserveEvents(evs)
	}

	answers := [][]int{
		tr.TopK(8, nil),
		tr.TopK(4, nil),
		{0, 1, 2, 3, 4, 5, 6, 7},
		{47, 46, 45, 44},
		{-1, 99, 0, 0, 1}, // junk + duplicate
		{},
	}
	for _, k := range []int{1, 2, 4, 8, 16, 48, 60} {
		for ai, ans := range answers {
			got := tr.RecallAt(k, ans)
			want := bruteRecall(tr.counts, k, ans)
			if got != want {
				t.Fatalf("recall@%d answer %d: evaluator %v != brute force %v", k, ai, got, want)
			}
		}
	}
	// Non-vacuity: the exact top-8 must score 1, the 4 coldest items must
	// not (the trace is skewed, so cold != hot).
	if r := tr.RecallAt(8, tr.TopK(8, nil)); r != 1 {
		t.Fatalf("exact top-8 scored %v, want 1", r)
	}
	ord := tr.rank()
	cold := []int{ord[47], ord[46], ord[45], ord[44]}
	if r := tr.RecallAt(4, cold); r == 1 {
		t.Fatalf("coldest items scored perfect recall; evaluator is vacuous")
	}
}

// TestRecallAllEqualTies pins the tie convention on an all-equal trace:
// every item has the same count, so ANY k distinct in-range items are a
// correct top-k and must score recall 1.
func TestRecallAllEqualTies(t *testing.T) {
	tr := NewTruth(16)
	for i := 0; i < 16; i++ {
		tr.Observe(i, 7)
	}
	for _, ans := range [][]int{{0, 1, 2, 3}, {12, 3, 9, 0}, {15, 14, 13, 12}} {
		if r := tr.RecallAt(4, ans); r != 1 {
			t.Fatalf("all-equal trace: answer %v scored %v, want 1", ans, r)
		}
		if r := bruteRecall(tr.counts, 4, ans); r != 1 {
			t.Fatalf("brute force disagrees on ties: %v", r)
		}
	}
	// Duplicates still cost: {3,3,3,3} names only one distinct item.
	if r := tr.RecallAt(4, []int{3, 3, 3, 3}); r != 0.25 {
		t.Fatalf("duplicate answer scored %v, want 0.25", r)
	}
}

// TestTruthTopKAndThreshold pins the deterministic order and threshold.
func TestTruthTopKAndThreshold(t *testing.T) {
	tr := NewTruth(6)
	for item, c := range map[int]int64{0: 5, 1: 9, 2: 5, 3: 1, 4: 9} {
		tr.Observe(item, c)
	}
	got := tr.TopK(4, nil)
	want := []int{1, 4, 0, 2} // 9,9 then 5,5 — ties by ascending id
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if thr := tr.Threshold(4); thr != 5 {
		t.Fatalf("Threshold(4) = %d, want 5", thr)
	}
}

// TopK appends the exact top-k item ids (count descending, ties by
// ascending id) to dst and returns it.
func (tr *Truth) TopK(k int, dst []int) []int {
	ord := tr.rank()
	if k > len(ord) {
		k = len(ord)
	}
	return append(dst, ord[:k]...)
}
