package sketch

import "fmt"

// SpaceSaving is the Metwally–Agrawal–El Abbadi stream-summary sketch: a
// slot table of c counters, each with its takeover error. A new item
// evicts the minimum counter and inherits its count as the per-item
// over-estimation error, which yields the classic guarantees (for every
// item x with true count f(x)):
//
//	Estimate(x) >= f(x)                      (never under-estimates)
//	Estimate(x) - Err(x) <= f(x)             (per-item error is tracked)
//	Err(x) <= min counter <= Total()/c       (the epsilon*N bound, eps=1/c)
//
// Eviction is deterministic: the minimum counter, ties broken by the
// smallest item id, so runs replay byte-identically. A hit is one add and
// one compare; an eviction takes the floor's next slot (slotTable).
type SpaceSaving struct {
	slotTable
	err []int64 // slot -> takeover error
}

// NewSpaceSaving returns a Space-Saving summary with capacity counters
// (capacity >= 1).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		panic("sketch: SpaceSaving capacity must be >= 1")
	}
	return &SpaceSaving{slotTable: newSlotTable(capacity), err: make([]int64, capacity)}
}

// Name implements Summary.
func (s *SpaceSaving) Name() string { return fmt.Sprintf("space-saving(c=%d)", s.cap) }

// Observe implements Summary.
func (s *SpaceSaving) Observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	s.total += delta
	if slot := s.idx.get(item); slot >= 0 {
		s.set(slot, s.cnt[slot]+delta)
		return
	}
	if s.n < s.cap {
		s.err[s.add(item, delta)] = 0
		return
	}
	// Evict the deterministic minimum: it vouches for the new item's count.
	level := s.level
	s.err[s.replaceMin(item, level+delta)] = level
}

// Estimate implements Summary. A tracked item returns its counter and
// recorded takeover error; an untracked item is bounded by the floor's
// level, the minimum counter once the summary is full (it was evicted at or
// below that count) and 0 before (every count is exact until the first
// eviction), so est = bound = level.
func (s *SpaceSaving) Estimate(item uint64) (est, bound int64) {
	if slot := s.idx.get(item); slot >= 0 {
		return s.cnt[slot], s.err[slot]
	}
	return s.level, s.level
}

// Heavy implements Summary.
func (s *SpaceSaving) Heavy(k int, dst []Counter) []Counter {
	return s.heavy(k, dst, s.err)
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
func (s *SpaceSaving) Reset(uint64) { s.clear() }
