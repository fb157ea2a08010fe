package sketch

import (
	"fmt"
	"math"
)

// CountMin is the Cormode–Muthukrishnan sketch: depth rows of width
// counters, each row under its own seeded hash; an item's estimate is the
// minimum of its row cells. With non-negative deltas it never
// under-estimates, and the standard analysis bounds the over-estimate by
// eps*N with eps = e/width, except with probability δ = e^-depth per item:
// probabilistic where Space-Saving and Misra-Gries are exact, which is why
// the seed participates in Reset. Because a bare CMS cannot enumerate
// items, a keeper (the bounded top-k + frequency map of the heavy-hitters
// literature) retains the highest-estimate items seen so Heavy works: a
// slot table, as Space-Saving's, whose counts are estimates as of each
// item's last observation and which an item takes over only with an
// estimate above its minimum (deterministic, ties broken by item id).
type CountMin struct {
	slotTable // the keeper
	width     int
	seed      uint64
	rows      []int64 // depth * width, row-major
}

// NewCountMin returns a Count-Min sketch sized by capacity (>= 1) to
// allocate no more than NewSpaceSaving(capacity): min(4, capacity) rows of
// capacity counters (δ = e^-4 from capacity 4 on) and a keeper of
// ⌈capacity/4⌉ items. The seed derives the row hashes.
func NewCountMin(capacity int, seed uint64) *CountMin {
	return newCountMin(capacity, min(4, capacity), (capacity+3)/4, seed)
}

// newCountMin returns a Count-Min sketch of depth x width counters whose
// keeper retains the track highest-estimate items (all >= 1).
func newCountMin(width, depth, track int, seed uint64) *CountMin {
	if width < 1 || depth < 1 || track < 1 {
		panic("sketch: CountMin width, depth, track must all be >= 1")
	}
	return &CountMin{
		slotTable: newSlotTable(track),
		width:     width,
		seed:      seed,
		rows:      make([]int64, width*depth),
	}
}

// Name implements Summary.
func (c *CountMin) Name() string {
	return fmt.Sprintf("count-min(w=%d,d=%d,track=%d)", c.width, c.depth(), c.cap)
}

// bound is ceil(e*N/width), the eps*N of the standard analysis. Unlike the
// counter sketches' exact bounds it holds with probability 1-e^-depth per
// item; the unit tests pin it on seeded traces where it is deterministic.
func (c *CountMin) bound() int64 {
	return int64(math.Ceil(math.E * float64(c.total) / float64(c.width)))
}

func (c *CountMin) depth() int { return len(c.rows) / c.width }

// cell returns row r's counter for an item whose hash is h = mix(item ^
// seed); the row's own hash is hashSeed(h, r).
func (c *CountMin) cell(r int, h uint64) *int64 {
	return &c.rows[r*c.width+int(hashSeed(h, r)%uint64(c.width))]
}

// Observe implements Summary.
func (c *CountMin) Observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	c.total += delta
	h, est := mix(item^c.seed), int64(math.MaxInt64)
	for r := range c.depth() {
		p := c.cell(r, h)
		*p += delta
		est = min(est, *p)
	}
	// Keeper update: track the item if it is already kept, there is room,
	// or it now beats the smallest kept estimate (strictly — deterministic).
	switch slot := c.idx.get(item); {
	case slot >= 0:
		c.set(slot, est)
	case c.n < c.cap:
		c.add(item, est)
	case est > c.level:
		c.replaceMin(item, est)
	}
}

// Estimate implements Summary.
func (c *CountMin) Estimate(item uint64) (est, bound int64) {
	h, est := mix(item^c.seed), int64(math.MaxInt64)
	for r := range c.depth() {
		est = min(est, *c.cell(r, h))
	}
	return est, c.bound()
}

// Heavy implements Summary: the keeper's items by (estimate descending,
// item ascending). Kept estimates are refreshed lazily on Observe, so a
// kept item whose cells grew through collisions reports its estimate as of
// its last observation. Err is the shared eps*N bound.
func (c *CountMin) Heavy(k int, dst []Counter) []Counter {
	dst = c.heavy(k, dst, nil)
	bound := c.bound()
	for i := range dst {
		dst[i].Err = bound
	}
	return dst
}

// Tracked implements Summary: the keeper's items, each with the estimate
// as of its last observation (Estimate reads the live table and may be
// larger) and the shared eps*N bound.
func (c *CountMin) Tracked(dst []Counter) []Counter {
	dst = dst[:0]
	bound := c.bound()
	for i := 0; i < c.n; i++ {
		dst = append(dst, Counter{Item: c.item[i], Count: c.cnt[i], Err: bound})
	}
	return dst
}

// UntrackedEstimate implements Summary: an item outside the keeper still
// estimates to the minimum of its own row cells, so there is no one number.
func (c *CountMin) UntrackedEstimate() (int64, bool) { return 0, false }

// Reset implements Summary: zero the rows and the keeper; the new seed
// derives the row hashes.
func (c *CountMin) Reset(seed uint64) {
	c.seed = seed
	clear(c.rows)
	c.clear()
}
