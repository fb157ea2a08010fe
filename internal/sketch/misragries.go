package sketch

import "fmt"

// MisraGries is the classic deterministic frequent-items summary with c
// counters: an untracked arrival with no free counter decrements every
// counter (and the arrival) by the feasible minimum, dropping counters
// that reach zero. The total decrement any single item can have suffered
// is tracked exactly in decrs, which yields (for true count f(x)):
//
//	Estimate(x) <= f(x)                       (never over-estimates)
//	Estimate(x) + decrs >= f(x)               (exact undercount bound)
//	decrs <= Total()/(c+1)                    (the epsilon*N bound)
//
// Weighted arrivals (delta > 1) are absorbed in decrement rounds of the
// feasible minimum each, so Observe is O(c) worst case and allocation-free.
type MisraGries struct {
	cap   int
	cnt   []int64
	item  []uint64
	n     int
	total int64
	decrs int64

	idx oaTable
	ord heavyOrder
}

// NewMisraGries returns a Misra-Gries summary with capacity counters
// (capacity >= 1).
func NewMisraGries(capacity int) *MisraGries {
	if capacity < 1 {
		panic("sketch: MisraGries capacity must be >= 1")
	}
	m := &MisraGries{
		cap:  capacity,
		cnt:  make([]int64, capacity),
		item: make([]uint64, capacity),
		idx:  newOATable(capacity),
	}
	m.ord = heavyOrder{order: make([]int32, 0, capacity), cnt: m.cnt, item: m.item}
	return m
}

// Name implements Summary.
func (m *MisraGries) Name() string { return fmt.Sprintf("misra-gries(c=%d)", m.cap) }

// Total implements Summary.
func (m *MisraGries) Total() int64 { return m.total }

// Observe implements Summary.
func (m *MisraGries) Observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	m.total += delta
	for delta > 0 {
		if slot := m.idx.get(item); slot >= 0 {
			m.cnt[slot] += delta
			return
		}
		if m.n < m.cap {
			slot := int32(m.n)
			m.n++
			m.cnt[slot] = delta
			m.item[slot] = item
			m.idx.put(item, slot)
			return
		}
		// No counter free: decrement everything (and the arrival) by the
		// feasible minimum, freeing zeroed counters by swap-compaction.
		d := delta
		for s := 0; s < m.n; s++ {
			if m.cnt[s] < d {
				d = m.cnt[s]
			}
		}
		m.decrs += d
		delta -= d
		for s := 0; s < m.n; {
			m.cnt[s] -= d
			if m.cnt[s] == 0 {
				m.idx.del(m.item[s])
				last := m.n - 1
				if s != last {
					// Move the (not-yet-decremented) last counter into the
					// hole and re-examine slot s without advancing, so the
					// loop applies its decrement too.
					m.cnt[s] = m.cnt[last]
					m.item[s] = m.item[last]
					m.idx.put(m.item[s], int32(s))
				}
				m.n = last
				continue
			}
			s++
		}
	}
}

// Estimate implements Summary: a tracked item's counter under-estimates by
// at most decrs; an untracked item's true count is at most decrs.
func (m *MisraGries) Estimate(item uint64) (est, bound int64) {
	if slot := m.idx.get(item); slot >= 0 {
		return m.cnt[slot], m.decrs
	}
	return 0, m.decrs
}

// Heavy implements Summary. Per-counter Err is the shared decrement bound.
func (m *MisraGries) Heavy(k int, dst []Counter) []Counter {
	dst = appendHeavy(&m.ord, m.n, k, dst, nil)
	for i := range dst {
		dst[i].Err = m.decrs
	}
	return dst
}

// Tracked implements Summary.
func (m *MisraGries) Tracked(dst []Counter) []Counter {
	dst = dst[:0]
	for i := 0; i < m.n; i++ {
		dst = append(dst, Counter{Item: m.item[i], Count: m.cnt[i], Err: m.decrs})
	}
	return dst
}

// UntrackedEstimate implements Summary: an untracked item estimates 0.
func (m *MisraGries) UntrackedEstimate() (int64, bool) { return 0, true }

// Reset implements Summary (deterministic; the seed only honors the
// rewind contract).
func (m *MisraGries) Reset(uint64) {
	m.n = 0
	m.total = 0
	m.decrs = 0
	m.idx.clear()
}
