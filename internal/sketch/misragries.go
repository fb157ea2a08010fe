package sketch

import "fmt"

// MisraGries is the classic deterministic frequent-items summary with c
// counters: an untracked arrival with no free counter decrements every
// counter (and the arrival) by the feasible minimum, dropping counters
// that reach zero. It is kept as a view of a Space-Saving summary with
// c+1 counters (Agarwal et al., Mergeable Summaries, PODS 2012): the two
// evolve in lockstep when each Misra-Gries counter is read as the
// Space-Saving counter minus the minimum counter m, and m is the total
// decrement any single item can have suffered. For true count f(x):
//
//	Estimate(x) <= f(x)                       (never over-estimates)
//	Estimate(x) + m >= f(x)                   (exact undercount bound)
//	m <= Total()/(c+1)                        (the epsilon*N bound)
//
// A tracked item is one whose counter exceeds m, so at most c are listed;
// an item at or below it estimates 0. Memory is the c+1 Space-Saving
// counters, and Observe is Space-Saving's: one add and compare on a hit, a
// step of the minimum count's floor on an eviction, whatever the weight,
// allocation-free.
type MisraGries struct {
	ss *SpaceSaving
}

// NewMisraGries returns a Misra-Gries summary with capacity counters
// (capacity >= 1).
func NewMisraGries(capacity int) *MisraGries {
	if capacity < 1 {
		panic("sketch: MisraGries capacity must be >= 1")
	}
	return &MisraGries{ss: NewSpaceSaving(capacity + 1)}
}

// Name implements Summary.
func (m *MisraGries) Name() string { return fmt.Sprintf("misra-gries(c=%d)", m.ss.cap-1) }

// Total implements Summary.
func (m *MisraGries) Total() int64 { return m.ss.total }

// Observe implements Summary.
func (m *MisraGries) Observe(item uint64, delta int64) { m.ss.Observe(item, delta) }

// Estimate implements Summary: a tracked item's count above the minimum
// under-estimates by at most the minimum; an untracked item's true count
// is at most the minimum.
func (m *MisraGries) Estimate(item uint64) (est, bound int64) {
	d := m.ss.level
	if slot := m.ss.idx.get(item); slot >= 0 {
		return m.ss.cnt[slot] - d, d
	}
	return 0, d
}

// Heavy implements Summary. Per-counter Err is the shared decrement bound.
func (m *MisraGries) Heavy(k int, dst []Counter) []Counter {
	d := m.ss.level
	dst = m.ss.heavy(k, dst, nil)
	for i := range dst {
		// Counts descend, so the counters at the minimum are a suffix.
		if dst[i].Count <= d {
			return dst[:i]
		}
		dst[i].Count -= d
		dst[i].Err = d
	}
	return dst
}

// Tracked implements Summary.
func (m *MisraGries) Tracked(dst []Counter) []Counter {
	d := m.ss.level
	dst = dst[:0]
	for i := 0; i < m.ss.n; i++ {
		if c := m.ss.cnt[i] - d; c > 0 {
			dst = append(dst, Counter{Item: m.ss.item[i], Count: c, Err: d})
		}
	}
	return dst
}

// UntrackedEstimate implements Summary: an untracked item estimates 0.
func (m *MisraGries) UntrackedEstimate() (int64, bool) { return 0, true }

// Reset implements Summary (deterministic; the seed only honors the
// rewind contract).
func (m *MisraGries) Reset(seed uint64) { m.ss.Reset(seed) }
