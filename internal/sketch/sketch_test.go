package sketch

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// testRNG is a tiny splitmix64 for seeded test traces (kept local so the
// package under test stays stdlib-only even in its tests).
type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// zipfTrace returns a seeded zipf-skewed item trace over [0, items):
// sampled by inverse rank via a precomputed cumulative weight table with
// w(rank) = 1/(rank+1)^s, ranks scattered over item ids by a seeded swap
// pass so item id and popularity are uncorrelated.
func zipfTrace(items, events int, s float64, seed uint64) []uint64 {
	cum := make([]float64, items)
	total := 0.0
	for r := 0; r < items; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cum[r] = total
	}
	rankToItem := make([]uint64, items)
	for i := range rankToItem {
		rankToItem[i] = uint64(i)
	}
	rng := &testRNG{state: seed}
	for i := items - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		rankToItem[i], rankToItem[j] = rankToItem[j], rankToItem[i]
	}
	out := make([]uint64, events)
	for e := range out {
		u := float64(rng.next()>>11) / float64(uint64(1)<<53) * total
		lo, hi := 0, items-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[e] = rankToItem[lo]
	}
	return out
}

// unseen is an item no test trace or fuzz tape observes.
const unseen = math.MaxUint64

// errorBound is the summary-wide worst-case error: Estimate's bound on an
// item the summary has never seen. That is one number for every kind —
// Space-Saving's minimum counter once full (0 before), Misra-Gries's
// cumulative decrement, Count-Min's ceil(e*N/width).
func errorBound(s Summary) int64 {
	_, bound := s.Estimate(unseen)
	return bound
}

func mkSummaries() []Summary {
	return []Summary{
		NewSpaceSaving(64),
		NewMisraGries(64),
		newCountMin(256, 4, 64, 42),
	}
}

// exactCounts replays a trace into an exact frequency map.
func exactCounts(trace []uint64) map[uint64]int64 {
	truth := make(map[uint64]int64)
	for _, it := range trace {
		truth[it]++
	}
	return truth
}

// TestErrorBounds pins each sketch's documented guarantee on a seeded
// zipf trace, with vacuity guards: the trace must actually overflow the
// summaries (Space-Saving evictions, Misra-Gries decrements, Count-Min
// collisions) and at least one estimate must differ from the truth,
// otherwise the bounds are tested on nothing.
func TestErrorBounds(t *testing.T) {
	const items, events = 512, 20000
	trace := zipfTrace(items, events, 1.1, 7)
	truth := exactCounts(trace)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, it := range trace {
				s.Observe(it, 1)
			}
			if s.Total() != events {
				t.Fatalf("Total = %d, want %d", s.Total(), events)
			}
			inexact := 0
			for it := uint64(0); it < items; it++ {
				est, bound := s.Estimate(it)
				f := truth[it]
				if est != f {
					inexact++
				}
				if f < est-bound || f > est+bound {
					t.Fatalf("item %d: true %d outside [%d-%d, %d+%d]", it, f, est, bound, est, bound)
				}
				switch s.(type) {
				case *SpaceSaving, *CountMin:
					if est < f {
						t.Fatalf("%s under-estimates item %d: est %d < true %d", s.Name(), it, est, f)
					}
				case *MisraGries:
					if est > f {
						t.Fatalf("misra-gries over-estimates item %d: est %d > true %d", it, est, f)
					}
				}
			}
			// Vacuity guards: the summaries must be under real pressure and
			// the epsilon*N bound must be non-trivial and respected.
			if inexact == 0 {
				t.Fatal("vacuous: every estimate exact — trace does not stress the summary")
			}
			eb := errorBound(s)
			if eb <= 0 {
				t.Fatal("vacuous: error bound is 0 under overflow pressure")
			}
			switch sk := s.(type) {
			case *SpaceSaving:
				// eps*N with eps = 1/c.
				if max := s.Total() / 64; eb > max {
					t.Fatalf("space-saving error bound %d exceeds N/c = %d", eb, max)
				}
			case *MisraGries:
				if max := s.Total() / (64 + 1); eb > max {
					t.Fatalf("misra-gries error bound %d exceeds N/(c+1) = %d", eb, max)
				}
			case *CountMin:
				// The per-item bound must actually hold on this seed for
				// every item (deterministic given the seed).
				_ = sk
			}
		})
	}
}

// TestHeavyDeterministicOrder pins Heavy's (count desc, item asc) contract
// and that two identically-seeded summaries produce byte-identical Heavy
// snapshots after identical traces.
func TestHeavyDeterministicOrder(t *testing.T) {
	const items, events = 256, 8000
	trace := zipfTrace(items, events, 1.2, 11)
	mk := func() []Summary { return mkSummaries() }
	a, b := mk(), mk()
	for i := range a {
		for _, it := range trace {
			a[i].Observe(it, 1)
			b[i].Observe(it, 1)
		}
		ha := a[i].Heavy(16, nil)
		hb := b[i].Heavy(16, nil)
		if !reflect.DeepEqual(ha, hb) {
			t.Fatalf("%s: identical traces disagree:\n%v\n%v", a[i].Name(), ha, hb)
		}
		if len(ha) == 0 {
			t.Fatalf("%s: empty heavy list", a[i].Name())
		}
		for j := 1; j < len(ha); j++ {
			prev, cur := ha[j-1], ha[j]
			if cur.Count > prev.Count || (cur.Count == prev.Count && cur.Item <= prev.Item) {
				t.Fatalf("%s: heavy order violated at %d: %v then %v", a[i].Name(), j, prev, cur)
			}
		}
	}
}

// TestTrackedEnumeration pins the enumeration contract on a trace that
// overflows the summaries, at checkpoints from empty to full and after
// Reset: Tracked is Heavy(capacity) as a set, and the summaries that state
// an untracked estimate answer Estimate with it across the whole universe.
func TestTrackedEnumeration(t *testing.T) {
	const items, events = 512, 6000
	trace := zipfTrace(items, events, 1.1, 5)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			checkTracked(t, s, items)
			for i, it := range trace {
				s.Observe(it, 1)
				if i%97 == 0 {
					checkTracked(t, s, items)
				}
			}
			checkTracked(t, s, items)
			_, uniform := s.UntrackedEstimate()
			if _, hashed := s.(*CountMin); uniform == hashed {
				t.Fatalf("UntrackedEstimate uniform = %v", uniform)
			}
			s.Reset(42)
			checkTracked(t, s, items)
		})
	}
}

// TestResetReplaysIdentically pins the repo's replay contract: Reset(seed)
// followed by the same trace must reproduce the original run's Heavy
// snapshot, Total, and error bound exactly.
func TestResetReplaysIdentically(t *testing.T) {
	const items, events = 128, 6000
	trace := zipfTrace(items, events, 1.1, 3)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			run := func() ([]Counter, int64, int64) {
				for _, it := range trace {
					s.Observe(it, 2)
				}
				return s.Heavy(32, nil), s.Total(), errorBound(s)
			}
			h1, t1, e1 := run()
			s.Reset(42)
			h2, t2, e2 := run()
			if !reflect.DeepEqual(h1, h2) || t1 != t2 || e1 != e2 {
				t.Fatalf("replay after Reset diverged:\n%v total=%d bound=%d\n%v total=%d bound=%d",
					h1, t1, e1, h2, t2, e2)
			}
		})
	}
}

// TestObserveAllocs enforces the construction-time allocation budget:
// steady-state Observe (and Estimate, and Heavy and Tracked into a reused
// buffer) allocate nothing, the sketch analogue of TestLiveStepAllocs.
func TestObserveAllocs(t *testing.T) {
	const items, events = 512, 4000
	trace := zipfTrace(items, events, 1.1, 9)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, it := range trace {
				s.Observe(it, 1)
			}
			i := 0
			if avg := testing.AllocsPerRun(2000, func() {
				s.Observe(trace[i%len(trace)], 1)
				i++
			}); avg != 0 {
				t.Errorf("Observe allocates %.2f per op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(2000, func() {
				s.Estimate(trace[i%len(trace)])
				i++
			}); avg != 0 {
				t.Errorf("Estimate allocates %.2f per op, want 0", avg)
			}
			buf := make([]Counter, 0, 64)
			if avg := testing.AllocsPerRun(500, func() {
				buf = s.Heavy(16, buf)
			}); avg != 0 {
				t.Errorf("Heavy into reused buffer allocates %.2f per op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(500, func() {
				buf = s.Tracked(buf)
			}); avg != 0 {
				t.Errorf("Tracked into reused buffer allocates %.2f per op, want 0", avg)
			}
		})
	}
}

// constructed keeps what a construction test builds on the heap.
var constructed Summary

// raceEnabled is set by the -race build, which turns off Go's tiny
// allocator, so small blocks take more bytes than in a plain build.
var raceEnabled bool

// TestCountMinFitsSpaceSaving holds NewCountMin(c, seed) to the bytes
// NewSpaceSaving(c) allocates, so a capacity sizes every summary to the
// same memory, and NewSpaceSaving(c) to a byte budget: what it took when
// its index held 8-byte keys beside the slot numbers at load <= 1/2. Each
// constructor's TotalAlloc is averaged over many builds, which spreads the
// 16-byte blocks of Go's tiny allocator evenly. The budget is a plain
// build's: under -race only Count-Min <= Space-Saving is checked.
func TestCountMinFitsSpaceSaving(t *testing.T) {
	bytes := func(build func() Summary) uint64 {
		const builds = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range builds {
			constructed = build()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / builds
	}
	// On linux/amd64 with go1.24, NewSpaceSaving takes 376, 1152, 3072,
	// 6976 and 13632 B at these capacities, NewCountMin 376, 1008, 2448,
	// 5824 and 11328 B.
	for _, row := range []struct {
		c      int
		budget uint64
	}{{1, 408}, {16, 1280}, {48, 3584}, {128, 8000}, {256, 15680}} {
		c := row.c
		ss := bytes(func() Summary { return NewSpaceSaving(c) })
		cm := bytes(func() Summary { return NewCountMin(c, 7) })
		t.Logf("c = %d: space-saving %d B, %s %d B", c, ss, constructed.Name(), cm)
		if ss > row.budget && !raceEnabled {
			t.Errorf("c = %d: NewSpaceSaving allocates %d B, budget %d B", c, ss, row.budget)
		}
		if cm > ss {
			t.Errorf("c = %d: NewCountMin allocates %d B, NewSpaceSaving %d B", c, cm, ss)
		}
	}
}

// TestWeightedAndDegenerateObserves covers deltas > 1, ignored deltas,
// single-counter capacities, and the all-equal-ties regime.
func TestWeightedAndDegenerateObserves(t *testing.T) {
	for _, s := range []Summary{NewSpaceSaving(1), NewMisraGries(1), newCountMin(2, 1, 1, 5)} {
		s.Observe(10, 5)
		s.Observe(11, 0)  // ignored
		s.Observe(12, -3) // ignored
		if s.Total() != 5 {
			t.Fatalf("%s: Total = %d, want 5", s.Name(), s.Total())
		}
		s.Observe(13, 7)
		if h := s.Heavy(4, nil); len(h) == 0 {
			t.Fatalf("%s: no heavy items", s.Name())
		}
	}

	// All-equal ties: every item observed the same amount; Heavy must be
	// item-ascending within the tied count.
	ss := NewSpaceSaving(16)
	for it := uint64(0); it < 8; it++ {
		ss.Observe(it, 3)
	}
	h := ss.Heavy(8, nil)
	if len(h) != 8 {
		t.Fatalf("heavy len %d, want 8", len(h))
	}
	for j, c := range h {
		if c.Item != uint64(j) || c.Count != 3 || c.Err != 0 {
			t.Fatalf("tie order wrong at %d: %+v", j, c)
		}
	}
}

// TestSpaceSavingEvictionAccounting pins the classic eviction mechanics on
// a tiny hand-checkable trace.
func TestSpaceSavingEvictionAccounting(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Observe(1, 5)
	s.Observe(2, 3)
	s.Observe(3, 1) // evicts item 2 (min=3): count 4, err 3
	est, bound := s.Estimate(3)
	if est != 4 || bound != 3 {
		t.Fatalf("estimate(3) = (%d,%d), want (4,3)", est, bound)
	}
	est, bound = s.Estimate(2) // untracked: bounded by min counter
	if est != 4 || bound != 4 {
		t.Fatalf("estimate(2) = (%d,%d), want (4,4)", est, bound)
	}
	if eb := errorBound(s); eb != 4 {
		t.Fatalf("error bound = %d, want 4 (min counter)", eb)
	}
}

// TestMisraGriesDecrementAccounting pins the decrement mechanics.
func TestMisraGriesDecrementAccounting(t *testing.T) {
	m := NewMisraGries(2)
	m.Observe(1, 5)
	m.Observe(2, 3)
	m.Observe(3, 2) // no room: decrement round d=2 (absorbs the arrival)
	if eb := errorBound(m); eb != 2 {
		t.Fatalf("decrs = %d, want 2", eb)
	}
	if est, _ := m.Estimate(1); est != 3 {
		t.Fatalf("estimate(1) = %d, want 3", est)
	}
	if est, _ := m.Estimate(2); est != 1 {
		t.Fatalf("estimate(2) = %d, want 1", est)
	}
	if est, _ := m.Estimate(3); est != 0 {
		t.Fatalf("estimate(3) = %d, want 0 (absorbed)", est)
	}
	m.Observe(4, 4) // d = min(1, 4) = 1 frees item 2's slot, 4 enters with 3
	if est, _ := m.Estimate(4); est != 3 {
		t.Fatalf("estimate(4) = %d, want 3", est)
	}
	if eb := errorBound(m); eb != 3 {
		t.Fatalf("decrs = %d, want 3", eb)
	}
}

// refMisraGries is the textbook weighted Misra-Gries summary over a map,
// the oracle of the Space-Saving view: an arrival that finds no free
// counter decrements every counter and itself by the smallest of them (or
// by what is left of its weight), drops the counters that reach zero, and
// repeats until it is absorbed or finds room.
type refMisraGries struct {
	c     int
	cnt   map[uint64]int64
	total int64
	decrs int64
	split int // arrivals cut down by a decrement round that then took a counter
}

func newRefMisraGries(c int) *refMisraGries {
	return &refMisraGries{c: c, cnt: make(map[uint64]int64)}
}

func (r *refMisraGries) observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	r.total += delta
	for decremented := false; delta > 0; decremented = true {
		if _, ok := r.cnt[item]; ok || len(r.cnt) < r.c {
			if decremented {
				r.split++
			}
			r.cnt[item] += delta
			return
		}
		d := delta
		for _, v := range r.cnt {
			d = min(d, v)
		}
		r.decrs += d
		delta -= d
		for it, v := range r.cnt {
			if v == d {
				delete(r.cnt, it)
			} else {
				r.cnt[it] = v - d
			}
		}
	}
}

// heavy lists every counter in Heavy's order (count descending, item
// ascending), each with the shared decrement bound as its Err.
func (r *refMisraGries) heavy() []Counter {
	out := make([]Counter, 0, len(r.cnt))
	for it, v := range r.cnt {
		out = append(out, Counter{Item: it, Count: v, Err: r.decrs})
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].Count > out[b].Count || out[a].Count == out[b].Count && out[a].Item < out[b].Item
	})
	return out
}

// checkMisraGriesView compares m with the reference r: Total, the
// untracked estimate, Estimate and its bound for every item of
// [0, universe) and an unseen one, Tracked as a set, and Heavy(k) for
// every k up to one past the capacity.
func checkMisraGriesView(t *testing.T, m *MisraGries, r *refMisraGries, universe uint64) {
	t.Helper()
	if m.Total() != r.total {
		t.Fatalf("%s: Total %d, reference %d", m.Name(), m.Total(), r.total)
	}
	if u, uniform := m.UntrackedEstimate(); u != 0 || !uniform {
		t.Fatalf("%s: UntrackedEstimate (%d, %v), want (0, true)", m.Name(), u, uniform)
	}
	for i := uint64(0); i <= universe; i++ {
		item := i
		if i == universe {
			item = unseen
		}
		if est, bound := m.Estimate(item); est != r.cnt[item] || bound != r.decrs {
			t.Fatalf("%s: Estimate(%d) = (%d, %d), reference (%d, %d)", m.Name(), item, est, bound, r.cnt[item], r.decrs)
		}
	}
	want := r.heavy()
	tracked := m.Tracked(nil)
	slices.SortFunc(tracked, func(a, b Counter) int { return cmp.Compare(a.Item, b.Item) })
	byItem := slices.Clone(want)
	slices.SortFunc(byItem, func(a, b Counter) int { return cmp.Compare(a.Item, b.Item) })
	if !slices.Equal(tracked, byItem) {
		t.Fatalf("%s: Tracked %v, reference %v", m.Name(), tracked, byItem)
	}
	for k := 0; k <= r.c+1; k++ {
		if got, want := m.Heavy(k, nil), want[:min(k, len(want))]; !slices.Equal(got, want) {
			t.Fatalf("%s: Heavy(%d) = %v, reference %v", m.Name(), k, got, want)
		}
	}
}

// TestMisraGriesMatchesReference holds the Space-Saving view to the
// map-based reference after every op of seeded weighted tapes (weights up
// to 40, ignored ones among them, occasional Resets) at every capacity
// from 1 to 12, with a vacuity guard: decrements must happen, and so must
// weighted arrivals that a decrement round cuts down to a remainder.
func TestMisraGriesMatchesReference(t *testing.T) {
	decremented, split := 0, 0
	for c := 1; c <= 12; c++ {
		universe := uint64(2*c + 3)
		for seed := uint64(1); seed <= 8; seed++ {
			rng := &testRNG{state: seed<<8 | uint64(c)}
			m, r := NewMisraGries(c), newRefMisraGries(c)
			for op := 0; op < 300; op++ {
				if rng.next()%64 == 0 {
					decremented += min(int(r.decrs), 1)
					split += r.split
					m.Reset(seed)
					r = newRefMisraGries(c)
				} else {
					item := rng.next() % universe
					if rng.next()%2 == 0 {
						item %= uint64(c/2 + 1) // a few items heavier than the rest
					}
					delta := int64(rng.next()%44) - 3
					m.Observe(item, delta)
					r.observe(item, delta)
				}
				checkMisraGriesView(t, m, r, universe)
			}
			decremented += min(int(r.decrs), 1)
			split += r.split
		}
	}
	if decremented == 0 || split == 0 {
		t.Fatalf("vacuous: %d tapes decremented, %d arrivals cut down", decremented, split)
	}
}

// refSpaceSaving is Space-Saving over maps, the oracle of the floor of the
// minimum count: an arrival that finds no free counter takes over the one
// with the smallest (count, item), found by a scan.
type refSpaceSaving struct {
	c     int
	cnt   map[uint64]int64
	err   map[uint64]int64
	total int64
	tied  int // evictions that chose among two or more minimum counters
}

func newRefSpaceSaving(c int) *refSpaceSaving {
	return &refSpaceSaving{c: c, cnt: make(map[uint64]int64), err: make(map[uint64]int64)}
}

func (r *refSpaceSaving) observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	r.total += delta
	if _, ok := r.cnt[item]; ok || len(r.cnt) < r.c {
		r.cnt[item] += delta
		return
	}
	m, at := r.floor()
	if len(at) > 1 {
		r.tied++
	}
	delete(r.cnt, at[0])
	delete(r.err, at[0])
	r.cnt[item], r.err[item] = m+delta, m
}

// floor returns the minimum count once every counter is used (0 before)
// and the items holding it, ascending.
func (r *refSpaceSaving) floor() (int64, []uint64) {
	if len(r.cnt) < r.c {
		return 0, nil
	}
	m := int64(math.MaxInt64)
	var at []uint64
	for it, v := range r.cnt {
		if v < m {
			m, at = v, at[:0]
		}
		if v == m {
			at = append(at, it)
		}
	}
	slices.Sort(at)
	return m, at
}

// heavy lists every counter in Heavy's order (count descending, item
// ascending) with its takeover error.
func (r *refSpaceSaving) heavy() []Counter {
	out := make([]Counter, 0, len(r.cnt))
	for it, v := range r.cnt {
		out = append(out, Counter{Item: it, Count: v, Err: r.err[it]})
	}
	sortHeavy(out)
	return out
}

func sortHeavy(cs []Counter) {
	slices.SortFunc(cs, func(a, b Counter) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Item, b.Item))
	})
}

// checkSpaceSavingView compares s with the reference r: Total, the
// untracked estimate, Estimate and its bound for every item of universe
// and an unseen one, Tracked as a set, and Heavy(k) for every k up to one
// past the capacity.
func checkSpaceSavingView(t *testing.T, s *SpaceSaving, r *refSpaceSaving, universe []uint64) {
	t.Helper()
	if s.Total() != r.total {
		t.Fatalf("%s: Total %d, reference %d", s.Name(), s.Total(), r.total)
	}
	m, _ := r.floor()
	if u, uniform := s.UntrackedEstimate(); u != m || !uniform {
		t.Fatalf("%s: UntrackedEstimate (%d, %v), reference (%d, true)", s.Name(), u, uniform, m)
	}
	for _, item := range append(universe, unseen) {
		want, bound := m, m
		if v, ok := r.cnt[item]; ok {
			want, bound = v, r.err[item]
		}
		if est, b := s.Estimate(item); est != want || b != bound {
			t.Fatalf("%s: Estimate(%d) = (%d, %d), reference (%d, %d)", s.Name(), item, est, b, want, bound)
		}
	}
	checkCounters(t, s, r.heavy(), r.c+1)
}

// checkCounters compares a summary's Tracked, as a set, and its Heavy(k)
// for every k up to maxK with want, listed in Heavy's order.
func checkCounters(t *testing.T, s Summary, want []Counter, maxK int) {
	t.Helper()
	byItem := func(cs []Counter) []Counter {
		cs = slices.Clone(cs)
		slices.SortFunc(cs, func(a, b Counter) int { return cmp.Compare(a.Item, b.Item) })
		return cs
	}
	if got := byItem(s.Tracked(nil)); !slices.Equal(got, byItem(want)) {
		t.Fatalf("%s: Tracked %v, reference %v", s.Name(), got, byItem(want))
	}
	for k := 0; k <= maxK; k++ {
		if got, want := s.Heavy(k, nil), want[:min(k, len(want))]; !slices.Equal(got, want) {
			t.Fatalf("%s: Heavy(%d) = %v, reference %v", s.Name(), k, got, want)
		}
	}
}

// TestSpaceSavingMatchesReference pins the eviction order, the minimum
// (count, item), against the map-based reference after every op of seeded
// tapes: every capacity from 1 to 16 with weights -3..40 (ignored ones
// among them) and occasional Resets, and two larger capacities with unit
// weights, whose floors outgrow the insertion sort: at c = 40 the item ids
// differ only in their third byte, so the radix sort skips the rest, and
// at c = 64 they are spread over every byte, so it takes all eight. The
// checks after each op are the reads between the writes. Vacuity guard:
// evictions must choose among tied minimum counters, at every capacity
// above 1.
func TestSpaceSavingMatchesReference(t *testing.T) {
	for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 40, 64} {
		universe := make([]uint64, 2*c+3)
		for i := range universe {
			switch c {
			case 40:
				universe[i] = uint64(i) << 16
			case 64:
				universe[i] = mix(uint64(i))
			default:
				universe[i] = uint64(i)
			}
		}
		tied := 0
		for seed := uint64(1); seed <= 8; seed++ {
			rng := &testRNG{state: seed<<8 | uint64(c)}
			s, r := NewSpaceSaving(c), newRefSpaceSaving(c)
			for op := 0; op < 300; op++ {
				if rng.next()%64 == 0 {
					tied += r.tied
					s.Reset(seed)
					r = newRefSpaceSaving(c)
				} else {
					i := rng.next() % uint64(len(universe))
					if rng.next()%2 == 0 {
						i %= uint64(c/2 + 1) // a few items heavier than the rest
					}
					delta := int64(rng.next()%44) - 3
					if c > 16 {
						delta = 1
					}
					s.Observe(universe[i], delta)
					r.observe(universe[i], delta)
				}
				checkSpaceSavingView(t, s, r, universe)
			}
			tied += r.tied
		}
		if c > 1 && tied == 0 {
			t.Fatalf("vacuous: no eviction at c = %d chose among tied minimum counters", c)
		}
	}
}

// refKeeper is Count-Min's keeper over a map: the track items with the
// largest estimates as of their last observation, an arrival taking over
// the smallest (estimate, item) only when its estimate is larger.
type refKeeper struct {
	track    int
	est      map[uint64]int64
	replaced int
}

func (r *refKeeper) observe(item uint64, est int64) {
	if _, ok := r.est[item]; ok || len(r.est) < r.track {
		r.est[item] = est
		return
	}
	var mi uint64
	m := int64(math.MaxInt64)
	for it, v := range r.est {
		if v < m || v == m && it < mi {
			m, mi = v, it
		}
	}
	if est > m {
		delete(r.est, mi)
		r.est[item] = est
		r.replaced++
	}
}

// heavy lists the kept items in Heavy's order, each with the shared bound.
func (r *refKeeper) heavy(bound int64) []Counter {
	out := make([]Counter, 0, len(r.est))
	for it, v := range r.est {
		out = append(out, Counter{Item: it, Count: v, Err: bound})
	}
	sortHeavy(out)
	return out
}

// TestCountMinKeeperMatchesReference holds Count-Min's keeper to refKeeper
// after every op of seeded weighted tapes (narrow tables, so estimates
// collide and tie) at every keeper size from 1 to 16, with occasional
// reseeding Resets. The reference is fed each arrival's estimate as
// Estimate reads it right after the Observe, which is the estimate the
// keeper sees.
func TestCountMinKeeperMatchesReference(t *testing.T) {
	replaced := 0
	for track := 1; track <= 16; track++ {
		universe := uint64(2*track + 3)
		for seed := uint64(1); seed <= 4; seed++ {
			rng := &testRNG{state: seed<<8 | uint64(track)}
			c := newCountMin(int(seed)*3, 2, track, seed)
			r := &refKeeper{track: track, est: make(map[uint64]int64)}
			for op := 0; op < 300; op++ {
				if rng.next()%64 == 0 {
					replaced += r.replaced
					c.Reset(rng.next())
					r = &refKeeper{track: track, est: make(map[uint64]int64)}
				} else {
					item := rng.next() % universe
					delta := int64(rng.next()%44) - 3
					c.Observe(item, delta)
					if delta > 0 {
						est, _ := c.Estimate(item)
						r.observe(item, est)
					}
				}
				checkCounters(t, c, r.heavy(errorBound(c)), track+1)
			}
			replaced += r.replaced
		}
	}
	if replaced == 0 {
		t.Fatal("vacuous: the keeper never replaced an item")
	}
}

// TestCountMinNeverUnderEstimates exercises heavy collision pressure (tiny
// width) — the over-estimate invariant must survive it.
func TestCountMinNeverUnderEstimates(t *testing.T) {
	const items, events = 300, 10000
	trace := zipfTrace(items, events, 1.0, 13)
	c := newCountMin(8, 2, 8, 99)
	truth := exactCounts(trace)
	for _, it := range trace {
		c.Observe(it, 1)
	}
	under := false
	for it, f := range truth {
		est, _ := c.Estimate(it)
		if est < f {
			t.Fatalf("under-estimate: item %d est %d < true %d", it, est, f)
		}
		if est > f {
			under = true // over-estimates exist: collisions are real
		}
	}
	if !under {
		t.Fatal("vacuous: width-8 sketch produced no collisions")
	}
}

// TestOATableDeleteChains stresses the backward-shift deletion against a
// mirror map through adversarial same-bucket churn: 32 slots over a 64-key
// space, three quarters of whose keys are homed in the index's last 8
// entries, so the probe chains pile up at the end and wrap past it. The
// entries are real slot numbers over an item array: an insert takes a free
// slot, a delete frees one and leaves its stale item behind, and an insert
// into a full table is a takeover in replaceMin's order (delete the slot,
// write the new item into it, index it again). After every op every key of
// the space must resolve to its mirrored slot or -1.
func TestOATableDeleteChains(t *testing.T) {
	const capacity, space = 32, 64
	item := make([]uint64, capacity)
	tab := newOATable(item)
	keys := make([]uint64, 0, space)
	for k := uint64(0); len(keys) < 3*space/4; k++ {
		if tab.home(k) > tab.mask-8 {
			keys = append(keys, k)
		}
	}
	for k := uint64(1 << 32); len(keys) < space; k++ {
		keys = append(keys, k)
	}
	mirror := make(map[uint64]int32)
	free := make([]int32, 0, capacity)
	for s := capacity - 1; s >= 0; s-- {
		free = append(free, int32(s))
	}
	rng := &testRNG{state: 77}
	used := make([]uint64, 0, capacity) // the keys in mirror
	wrapped := 0
	for op := 0; op < 20000; op++ {
		switch rng.next() % 3 {
		case 0, 1:
			k := keys[rng.next()%space]
			if _, ok := mirror[k]; ok {
				break
			}
			var slot int32
			if len(free) > 0 {
				slot, free = free[len(free)-1], free[:len(free)-1]
				used = append(used, k)
			} else {
				i := int(rng.next() % uint64(len(used)))
				slot = mirror[used[i]]
				tab.del(slot)
				delete(mirror, used[i])
				used[i] = k
			}
			item[slot] = k
			tab.put(slot)
			mirror[k] = slot
		case 2:
			if len(used) > 0 {
				i := int(rng.next() % uint64(len(used)))
				slot := mirror[used[i]]
				tab.del(slot)
				delete(mirror, used[i])
				free = append(free, slot)
				used[i] = used[len(used)-1]
				used = used[:len(used)-1]
			}
		}
		for _, k := range keys {
			want, ok := mirror[k]
			if !ok {
				want = -1
			}
			if got := tab.get(k); got != want {
				t.Fatalf("op %d: get(%d) = %d, want %d", op, k, got, want)
			}
		}
		if got := tab.get(12345678); got != -1 {
			t.Fatalf("op %d: absent key resolved to %d", op, got)
		}
		for i, s := range tab.slots {
			if s >= 0 && uint64(i) < tab.home(item[s]) {
				wrapped++
				break
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("vacuous: no probe chain wrapped past the table's end")
	}
	t.Logf("a chain wrapped the table's end after %d of 20000 ops", wrapped)
}

// TestNames pins the report-name format other layers embed in tables.
func TestNames(t *testing.T) {
	for _, want := range []struct {
		s    Summary
		name string
	}{
		{NewSpaceSaving(64), "space-saving(c=64)"},
		{NewMisraGries(32), "misra-gries(c=32)"},
		{newCountMin(256, 4, 64, 1), "count-min(w=256,d=4,track=64)"},
	} {
		if got := want.s.Name(); got != want.name {
			t.Fatalf("Name = %q, want %q", got, want.name)
		}
	}
}
