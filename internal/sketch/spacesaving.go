package sketch

import "fmt"

// SpaceSaving is the Metwally–Agrawal–El Abbadi stream-summary sketch: c
// counters and a min-heap over them. A new item evicts the minimum counter
// and inherits its count as the per-item over-estimation error, which
// yields the classic guarantees (for every item x with true count f(x)):
//
//	Estimate(x) >= f(x)                      (never under-estimates)
//	Estimate(x) - Err(x) <= f(x)             (per-item error is tracked)
//	Err(x) <= min counter <= Total()/c       (the epsilon*N bound, eps=1/c)
//
// Eviction is deterministic: the minimum counter, ties broken by the
// smallest item id, so runs replay byte-identically.
type SpaceSaving struct {
	cap   int
	n     int
	total int64
	err   []int64 // slot -> takeover error

	slotHeap // slot -> cnt and item, and the min-heap over the used slots
	idx      oaTable
	ord      heavyOrder
}

// NewSpaceSaving returns a Space-Saving summary with capacity counters
// (capacity >= 1).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		panic("sketch: SpaceSaving capacity must be >= 1")
	}
	s := &SpaceSaving{
		cap:      capacity,
		slotHeap: newSlotHeap(capacity),
		err:      make([]int64, capacity),
		idx:      newOATable(capacity),
	}
	s.ord = heavyOrder{order: make([]int32, 0, capacity), cnt: s.cnt, item: s.item}
	return s
}

// Name implements Summary.
func (s *SpaceSaving) Name() string { return fmt.Sprintf("space-saving(c=%d)", s.cap) }

// Total implements Summary.
func (s *SpaceSaving) Total() int64 { return s.total }

// minCount is the largest possible over-estimate of any single item — the
// minimum counter once the summary is full, 0 before (every count is exact
// until the first eviction).
func (s *SpaceSaving) minCount() int64 {
	if s.n < s.cap {
		return 0
	}
	return s.cnt[s.min()]
}

// Observe implements Summary.
func (s *SpaceSaving) Observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	s.total += delta
	if slot := s.idx.get(item); slot >= 0 {
		s.cnt[slot] += delta
		s.grew(slot)
		return
	}
	if s.n < s.cap {
		slot := int32(s.n)
		s.n++
		s.cnt[slot] = delta
		s.err[slot] = 0
		s.item[slot] = item
		s.idx.put(item, slot)
		s.push(slot)
		return
	}
	// Evict the deterministic minimum: it vouches for the new item's count.
	slot := s.min()
	s.idx.del(s.item[slot])
	s.err[slot] = s.cnt[slot]
	s.cnt[slot] += delta
	s.item[slot] = item
	s.idx.put(item, slot)
	s.grew(slot)
}

// Estimate implements Summary. A tracked item returns its counter and
// recorded takeover error; an untracked item is bounded by the minimum
// counter (it was evicted at or below that count), so est = bound = min.
func (s *SpaceSaving) Estimate(item uint64) (est, bound int64) {
	if slot := s.idx.get(item); slot >= 0 {
		return s.cnt[slot], s.err[slot]
	}
	m := s.minCount()
	return m, m
}

// UntrackedEstimate implements Summary: the minimum counter once the
// summary is full, 0 before (never tracked and nothing ever evicted, so the
// true count is 0) — minCount, by the same argument.
func (s *SpaceSaving) UntrackedEstimate() (int64, bool) { return s.minCount(), true }

// Heavy implements Summary.
func (s *SpaceSaving) Heavy(k int, dst []Counter) []Counter {
	return appendHeavy(&s.ord, s.n, k, dst, s.err)
}

// Tracked implements Summary.
func (s *SpaceSaving) Tracked(dst []Counter) []Counter {
	dst = dst[:0]
	for i := 0; i < s.n; i++ {
		dst = append(dst, Counter{Item: s.item[i], Count: s.cnt[i], Err: s.err[i]})
	}
	return dst
}

// Reset implements Summary. Space-Saving is deterministic, so the seed
// only honors the rewind contract.
func (s *SpaceSaving) Reset(uint64) {
	s.n = 0
	s.total = 0
	s.slotHeap.clear()
	s.idx.clear()
}
