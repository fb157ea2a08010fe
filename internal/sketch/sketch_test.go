package sketch

import (
	"cmp"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
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

// errorBound is the summary-wide bound: Estimate's bound on an item the
// summary has never seen, the minimum counter once full (0 before).
func errorBound(s *SpaceSaving) int64 {
	_, bound := s.Estimate(unseen)
	return bound
}

// exactCounts replays a trace into an exact frequency map.
func exactCounts(trace []uint64) map[uint64]int64 {
	truth := make(map[uint64]int64)
	for _, it := range trace {
		truth[it]++
	}
	return truth
}

// TestErrorBounds pins the summary's guarantee on a seeded zipf trace,
// with vacuity guards: the trace must actually overflow the summary
// (evictions) and at least one estimate must differ from the truth,
// otherwise the bounds are tested on nothing.
func TestErrorBounds(t *testing.T) {
	const items, events = 512, 20000
	trace := zipfTrace(items, events, 1.1, 7)
	truth := exactCounts(trace)
	t.Run("space-saving(c=64)", func(t *testing.T) {
		s := NewSpaceSaving(64)
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
			if f < est || f > est+bound {
				t.Fatalf("item %d: true %d outside [%d, %d+%d]", it, f, est, est, bound)
			}
		}
		// Vacuity guards: the summary must be under real pressure and the
		// epsilon*N bound must be non-trivial and respected.
		if inexact == 0 {
			t.Fatal("vacuous: every estimate exact — trace does not stress the summary")
		}
		eb := errorBound(s)
		if eb <= 0 {
			t.Fatal("vacuous: error bound is 0 under overflow pressure")
		}
		// eps*N with eps = 1/c.
		if max := s.Total() / 64; eb > max {
			t.Fatalf("error bound %d exceeds N/c = %d", eb, max)
		}
	})
}

// TestHeavyDeterministicOrder pins Heavy's (count desc, item asc) contract
// and that two summaries produce byte-identical Heavy snapshots after
// identical traces.
func TestHeavyDeterministicOrder(t *testing.T) {
	const items, events = 256, 8000
	trace := zipfTrace(items, events, 1.2, 11)
	a, b := NewSpaceSaving(64), NewSpaceSaving(64)
	for _, it := range trace {
		a.Observe(it, 1)
		b.Observe(it, 1)
	}
	ha := a.Heavy(16, nil)
	hb := b.Heavy(16, nil)
	if !reflect.DeepEqual(ha, hb) {
		t.Fatalf("identical traces disagree:\n%v\n%v", ha, hb)
	}
	if len(ha) == 0 {
		t.Fatal("empty heavy list")
	}
	for j := 1; j < len(ha); j++ {
		prev, cur := ha[j-1], ha[j]
		if cur.Count > prev.Count || (cur.Count == prev.Count && cur.Item <= prev.Item) {
			t.Fatalf("heavy order violated at %d: %v then %v", j, prev, cur)
		}
	}
}

// TestTrackedEnumeration pins the enumeration contract on a trace that
// overflows the summary, at checkpoints from empty to full and after
// Reset: Tracked is Heavy(capacity) as a set.
func TestTrackedEnumeration(t *testing.T) {
	const items, events = 512, 6000
	trace := zipfTrace(items, events, 1.1, 5)
	t.Run("space-saving(c=64)", func(t *testing.T) {
		s := NewSpaceSaving(64)
		checkTracked(t, s)
		for i, it := range trace {
			s.Observe(it, 1)
			if i%97 == 0 {
				checkTracked(t, s)
			}
		}
		checkTracked(t, s)
		s.Reset()
		checkTracked(t, s)
	})
}

// TestResetReplaysIdentically pins the repo's replay contract: Reset
// followed by the same trace must reproduce the original run's Heavy
// snapshot, Total, and error bound exactly.
func TestResetReplaysIdentically(t *testing.T) {
	const items, events = 128, 6000
	trace := zipfTrace(items, events, 1.1, 3)
	t.Run("space-saving(c=64)", func(t *testing.T) {
		s := NewSpaceSaving(64)
		run := func() ([]Counter, int64, int64) {
			for _, it := range trace {
				s.Observe(it, 2)
			}
			return s.Heavy(32, nil), s.Total(), errorBound(s)
		}
		h1, t1, e1 := run()
		s.Reset()
		h2, t2, e2 := run()
		if !reflect.DeepEqual(h1, h2) || t1 != t2 || e1 != e2 {
			t.Fatalf("replay after Reset diverged:\n%v total=%d bound=%d\n%v total=%d bound=%d",
				h1, t1, e1, h2, t2, e2)
		}
	})
}

// TestObserveAllocs enforces the construction-time allocation budget:
// steady-state Observe (and Estimate, and Heavy and Tracked into a reused
// buffer) allocate nothing, the sketch analogue of TestLiveStepAllocs.
func TestObserveAllocs(t *testing.T) {
	const items, events = 512, 4000
	trace := zipfTrace(items, events, 1.1, 9)
	t.Run("space-saving(c=64)", func(t *testing.T) {
		s := NewSpaceSaving(64)
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

// constructed keeps what a construction test builds on the heap.
var constructed *SpaceSaving

// raceEnabled is set by the -race build, which turns off Go's tiny
// allocator, so small blocks take more bytes than in a plain build.
var raceEnabled bool

// TestSpaceSavingByteBudget holds NewSpaceSaving(c) to a byte budget about
// 6 % above what it takes and below what one more int64 per slot would
// take (376, 1152, 3072, 6976 and 13632 B). The constructor's TotalAlloc is averaged over many builds, which spreads
// the 16-byte blocks of Go's tiny allocator evenly. The budget is a plain
// build's, so -race skips it.
func TestSpaceSavingByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build turns off the tiny allocator the budget assumes")
	}
	bytes := func(c int) uint64 {
		const builds = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range builds {
			constructed = NewSpaceSaving(c)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / builds
	}
	// On linux/amd64 with go1.24, NewSpaceSaving takes 336, 992, 2656,
	// 5920 and 11552 B at these capacities.
	for _, row := range []struct {
		c      int
		budget uint64
	}{{1, 360}, {16, 1056}, {48, 2816}, {128, 6272}, {256, 12224}} {
		ss := bytes(row.c)
		t.Logf("c = %d: space-saving %d B", row.c, ss)
		if ss > row.budget {
			t.Errorf("c = %d: NewSpaceSaving allocates %d B, budget %d B", row.c, ss, row.budget)
		}
	}
}

// TestWeightedAndDegenerateObserves covers deltas > 1, ignored deltas,
// the two smallest capacities, and the all-equal-ties regime.
func TestWeightedAndDegenerateObserves(t *testing.T) {
	for _, c := range []int{1, 2} {
		s := NewSpaceSaving(c)
		s.Observe(10, 5)
		s.Observe(11, 0)  // ignored
		s.Observe(12, -3) // ignored
		if s.Total() != 5 {
			t.Fatalf("c = %d: Total = %d, want 5", c, s.Total())
		}
		s.Observe(13, 7)
		h := s.Heavy(4, nil)
		switch c {
		case 1:
			// One counter is its own minimum: it holds the whole stream,
			// all of it in the bound.
			if est, bound := s.Estimate(13); len(h) != 0 || est != 0 || bound != 12 {
				t.Fatalf("c = 1: Heavy %v, Estimate(13) = (%d, %d), want none and (0, 12)", h, est, bound)
			}
		case 2:
			if want := []Counter{{Item: 13, Count: 2, Err: 5}}; !slices.Equal(h, want) {
				t.Fatalf("c = 2: Heavy %v, want %v", h, want)
			}
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
	s.Observe(3, 1) // evicts item 2 (min=3): count 4, the new minimum
	if slot := s.idx.get(3); slot < 0 || s.cnt[slot] != 4 {
		t.Fatalf("item 3 in slot %d, want a counter of 4", slot)
	}
	if slot := s.idx.get(2); slot >= 0 {
		t.Fatalf("item 2 still in slot %d after its eviction", slot)
	}
	est, bound := s.Estimate(3) // at the minimum: nothing vouched for
	if est != 0 || bound != 4 {
		t.Fatalf("estimate(3) = (%d,%d), want (0,4)", est, bound)
	}
	est, bound = s.Estimate(1)
	if est != 1 || bound != 4 {
		t.Fatalf("estimate(1) = (%d,%d), want (1,4)", est, bound)
	}
	est, bound = s.Estimate(2) // untracked: bounded by min counter
	if est != 0 || bound != 4 {
		t.Fatalf("estimate(2) = (%d,%d), want (0,4)", est, bound)
	}
	if eb := errorBound(s); eb != 4 {
		t.Fatalf("error bound = %d, want 4 (min counter)", eb)
	}
}

// TestSpaceSavingDecrementAccounting pins the Misra-Gries decrement
// mechanics the reading replays: three counters read as two.
func TestSpaceSavingDecrementAccounting(t *testing.T) {
	m := NewSpaceSaving(3)
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

// refMG is the textbook weighted Misra-Gries summary over a map, the
// oracle of the reading: an arrival that finds no free counter decrements
// every counter and itself by the smallest of them (or by what is left of
// its weight), drops the counters that reach zero, and repeats until it is
// absorbed or finds room.
type refMG struct {
	c     int
	cnt   map[uint64]int64
	total int64
	decrs int64
	split int // arrivals cut down by a decrement round that then took a counter
}

func newRefMG(c int) *refMG {
	return &refMG{c: c, cnt: make(map[uint64]int64)}
}

func (r *refMG) observe(item uint64, delta int64) {
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
func (r *refMG) heavy() []Counter {
	out := make([]Counter, 0, len(r.cnt))
	for it, v := range r.cnt {
		out = append(out, Counter{Item: it, Count: v, Err: r.decrs})
	}
	sortHeavy(out)
	return out
}

// refSpaceSaving is Space-Saving over maps, the oracle of the floor of the
// minimum count: an arrival that finds no free counter takes over the one
// with the smallest (count, item), found by a scan.
type refSpaceSaving struct {
	c     int
	cnt   map[uint64]int64
	total int64
	tied  int // evictions that chose among two or more minimum counters
}

func newRefSpaceSaving(c int) *refSpaceSaving {
	return &refSpaceSaving{c: c, cnt: make(map[uint64]int64)}
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
	r.cnt[item] = m + delta
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

func sortHeavy(cs []Counter) {
	slices.SortFunc(cs, func(a, b Counter) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Item, b.Item))
	})
}

// checkSpaceSavingView compares s with both references after an op. White
// box against rs: Total, every used slot's (item, count) and the level, so
// the eviction order is pinned even for the counters the reading hides.
// Read through the API against rm, a Misra-Gries with one counter fewer:
// Estimate and its bound for every item of universe and an unseen one,
// Tracked as a set, and Heavy(k) for every k up to one past the capacity.
func checkSpaceSavingView(t *testing.T, s *SpaceSaving, rs *refSpaceSaving, rm *refMG, universe []uint64) {
	t.Helper()
	if s.Total() != rs.total || s.Total() != rm.total {
		t.Fatalf("Total %d, references %d and %d", s.Total(), rs.total, rm.total)
	}
	slots := make(map[uint64]int64, s.n)
	for i, c := range s.cnt[:s.n] {
		slots[s.item[i]] = c
	}
	if !maps.Equal(slots, rs.cnt) {
		t.Fatalf("slots %v, reference %v", slots, rs.cnt)
	}
	if m, _ := rs.floor(); s.level != m {
		t.Fatalf("level %d, reference %d", s.level, m)
	}
	for _, item := range append(universe, unseen) {
		if est, bound := s.Estimate(item); est != rm.cnt[item] || bound != rm.decrs {
			t.Fatalf("Estimate(%d) = (%d, %d), reference (%d, %d)", item, est, bound, rm.cnt[item], rm.decrs)
		}
	}
	checkCounters(t, s, rm.heavy(), rs.c+1)
}

// checkCounters compares a summary's Tracked, as a set, and its Heavy(k)
// for every k up to maxK with want, listed in Heavy's order.
func checkCounters(t *testing.T, s *SpaceSaving, want []Counter, maxK int) {
	t.Helper()
	byItem := func(cs []Counter) []Counter {
		cs = slices.Clone(cs)
		slices.SortFunc(cs, func(a, b Counter) int { return cmp.Compare(a.Item, b.Item) })
		return cs
	}
	if got := byItem(s.Tracked(nil)); !slices.Equal(got, byItem(want)) {
		t.Fatalf("Tracked %v, reference %v", got, byItem(want))
	}
	for k := 0; k <= maxK; k++ {
		if got, want := s.Heavy(k, nil), want[:min(k, len(want))]; !slices.Equal(got, want) {
			t.Fatalf("Heavy(%d) = %v, reference %v", k, got, want)
		}
	}
}

// TestSpaceSavingMatchesReference pins the eviction order, the minimum
// (count, item), and the reading against the map-based references after
// every op of seeded tapes: every capacity from 1 to 16 with weights
// -3..40 (ignored ones among them) and occasional Resets, and two larger
// capacities with unit weights, whose floors outgrow the insertion sort:
// at c = 40 the item ids differ only in their third byte, so the radix
// sort skips the rest, and at c = 64 they are spread over every byte, so
// it takes all eight. The checks after each op are the reads between the
// writes. Vacuity guards: evictions must choose among tied minimum
// counters, at every capacity above 1, and the Misra-Gries reference must
// decrement and cut weighted arrivals down to a remainder.
func TestSpaceSavingMatchesReference(t *testing.T) {
	decremented, split := 0, 0
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
			s, rs, rm := NewSpaceSaving(c), newRefSpaceSaving(c), newRefMG(c-1)
			for op := 0; op < 300; op++ {
				if rng.next()%64 == 0 {
					tied += rs.tied
					decremented += min(int(rm.decrs), 1)
					split += rm.split
					s.Reset()
					rs, rm = newRefSpaceSaving(c), newRefMG(c-1)
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
					rs.observe(universe[i], delta)
					rm.observe(universe[i], delta)
				}
				checkSpaceSavingView(t, s, rs, rm, universe)
			}
			tied += rs.tied
			decremented += min(int(rm.decrs), 1)
			split += rm.split
		}
		if c > 1 && tied == 0 {
			t.Fatalf("vacuous: no eviction at c = %d chose among tied minimum counters", c)
		}
	}
	if decremented == 0 || split == 0 {
		t.Fatalf("vacuous: %d tapes decremented, %d arrivals cut down", decremented, split)
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
