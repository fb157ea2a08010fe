package sketch

// SpaceSaving is the Metwally–Agrawal–El Abbadi stream-summary sketch read
// as a lower bound: a slot table of c counters in which an item that finds
// no slot evicts the minimum counter m and enters at m plus its weight, and
// every counter is read as itself minus m. Read that way it is Misra-Gries
// with c−1 counters (Agarwal et al., Mergeable Summaries, PODS 2012): the
// two evolve in lockstep, and m is the total decrement any single item can
// have suffered. For every item x with true count f(x):
//
//	Estimate(x) <= f(x) <= Estimate(x) + m   (both bounds exact)
//	m <= Total()/c                           (the epsilon*N bound, eps=1/c)
//
// m is the floor's level: the minimum counter once every slot is used, 0
// before (every count is exact until the first eviction). An item whose
// counter exceeds m is tracked, so at most c−1 are listed; any other item
// estimates 0. Eviction is deterministic: the minimum counter, ties broken
// by the smallest item id, so runs replay byte-identically. A hit is one
// add and one compare; an eviction takes the floor's next slot
// (slotTable).
type SpaceSaving struct {
	slotTable
}

// NewSpaceSaving returns a Space-Saving summary with capacity counters
// (capacity >= 1; with one counter every estimate is 0).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		panic("sketch: SpaceSaving capacity must be >= 1")
	}
	return &SpaceSaving{slotTable: newSlotTable(capacity)}
}

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
		s.add(item, delta)
		return
	}
	s.replaceMin(item, s.level+delta)
}

// Estimate implements Summary: a tracked item's counter above the level
// falls short of its true count by at most the level; an untracked item's
// true count is at most the level.
func (s *SpaceSaving) Estimate(item uint64) (est, bound int64) {
	d := s.level
	if slot := s.idx.get(item); slot >= 0 {
		return s.cnt[slot] - d, d
	}
	return 0, d
}

// Heavy implements Summary. Every Err is the level.
func (s *SpaceSaving) Heavy(k int, dst []Counter) []Counter {
	d := s.level
	dst = s.heavy(k, dst)
	for i := range dst {
		// Counts descend, so the counters at the level are a suffix.
		if dst[i].Count <= d {
			return dst[:i]
		}
		dst[i].Count -= d
		dst[i].Err = d
	}
	return dst
}

// Tracked appends every counter above the level to dst[:0] in slot order,
// read as Heavy reads it, and returns it: Heavy(capacity) as a set, with
// no sort.
func (s *SpaceSaving) Tracked(dst []Counter) []Counter {
	d := s.level
	dst = dst[:0]
	for i, c := range s.cnt[:s.n] {
		if c > d {
			dst = append(dst, Counter{Item: s.item[i], Count: c - d, Err: d})
		}
	}
	return dst
}

// Reset rewinds to the freshly-constructed state.
func (s *SpaceSaving) Reset() { s.clear() }
