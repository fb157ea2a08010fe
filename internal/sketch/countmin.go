package sketch

import (
	"fmt"
	"math"
)

// CountMin is the Cormode–Muthukrishnan sketch: depth rows of width
// counters, each row under an independent seeded hash; an item's estimate
// is the minimum of its row cells. With non-negative deltas it never
// under-estimates, and the standard analysis bounds the over-estimate by
// eps*N with eps = e/width, failing with probability at most e^-depth —
// probabilistic where Space-Saving and Misra-Gries are exact, which is why
// the seed participates in Reset. Because a bare CMS cannot enumerate
// items, a track-slot keeper (the bounded top-k + frequency map of the
// heavy-hitters literature) retains the highest-estimate items seen so
// Heavy works; the keeper is deterministic (ties broken by item id) and
// shares Space-Saving's floor of the minimum count.
type CountMin struct {
	width, depth int
	seed         uint64
	rows         []int64 // depth * width, row-major
	rowSeed      []uint64
	total        int64

	// Heavy keeper: up to track items with the largest estimates, each
	// as of the item's last observation, evicting the minimum (estimate,
	// item).
	track int
	keep  slotFloor
	hn    int
	hidx  oaTable
	ord   heavyOrder
}

// NewCountMin returns a Count-Min sketch of depth x width counters whose
// heavy keeper retains the track highest-estimate items (all >= 1). The
// seed derives the row hash functions.
func NewCountMin(width, depth, track int, seed uint64) *CountMin {
	if width < 1 || depth < 1 || track < 1 {
		panic("sketch: CountMin width, depth, track must all be >= 1")
	}
	c := &CountMin{
		width: width, depth: depth, seed: seed, track: track,
		rows:    make([]int64, width*depth),
		rowSeed: make([]uint64, depth),
		keep:    newSlotFloor(track),
		hidx:    newOATable(track),
	}
	c.ord = heavyOrder{order: make([]int32, 0, track), cnt: c.keep.cnt, item: c.keep.item}
	for i := range c.rowSeed {
		c.rowSeed[i] = hashSeed(seed, i)
	}
	return c
}

// Name implements Summary.
func (c *CountMin) Name() string {
	return fmt.Sprintf("count-min(w=%d,d=%d,track=%d)", c.width, c.depth, c.track)
}

// Total implements Summary.
func (c *CountMin) Total() int64 { return c.total }

// bound is ceil(e*N/width), the eps*N of the standard analysis. Unlike the
// counter sketches' exact bounds it holds with probability 1-e^-depth per
// item; the unit tests pin it on seeded traces where it is deterministic.
func (c *CountMin) bound() int64 {
	return int64(math.Ceil(math.E * float64(c.total) / float64(c.width)))
}

func (c *CountMin) cell(row int, item uint64) *int64 {
	h := mix(item ^ c.rowSeed[row])
	return &c.rows[row*c.width+int(h%uint64(c.width))]
}

// Observe implements Summary.
func (c *CountMin) Observe(item uint64, delta int64) {
	if delta <= 0 {
		return
	}
	c.total += delta
	est := int64(math.MaxInt64)
	for r := 0; r < c.depth; r++ {
		p := c.cell(r, item)
		*p += delta
		if *p < est {
			est = *p
		}
	}
	// Keeper update: track the item if it is already kept, there is room,
	// or it now beats the smallest kept estimate (strictly — deterministic).
	if slot := c.hidx.get(item); slot >= 0 {
		c.keep.set(slot, est)
		return
	}
	if c.hn < c.track {
		slot := int32(c.hn)
		c.hn++
		c.keep.cnt[slot] = est
		c.keep.item[slot] = item
		c.hidx.put(item, slot)
		c.keep.push(slot)
		return
	}
	if est <= c.keep.level {
		return
	}
	slot := c.keep.min()
	c.hidx.del(c.keep.item[slot])
	c.keep.item[slot] = item
	c.hidx.put(item, slot)
	c.keep.set(slot, est)
}

// Estimate implements Summary.
func (c *CountMin) Estimate(item uint64) (est, bound int64) {
	est = int64(math.MaxInt64)
	for r := 0; r < c.depth; r++ {
		if v := *c.cell(r, item); v < est {
			est = v
		}
	}
	return est, c.bound()
}

// Heavy implements Summary: the keeper's items by (estimate descending,
// item ascending). Kept estimates are refreshed lazily on Observe, so a
// kept item whose cells grew through collisions reports its estimate as of
// its last observation. Err is the shared eps*N bound.
func (c *CountMin) Heavy(k int, dst []Counter) []Counter {
	dst = appendHeavy(&c.ord, c.hn, k, dst, nil)
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
	for i := 0; i < c.hn; i++ {
		dst = append(dst, Counter{Item: c.keep.item[i], Count: c.keep.cnt[i], Err: bound})
	}
	return dst
}

// UntrackedEstimate implements Summary: an item outside the keeper still
// estimates to the minimum of its own row cells, so there is no one number.
func (c *CountMin) UntrackedEstimate() (int64, bool) { return 0, false }

// Reset implements Summary: zero counters and keeper, re-derive the row
// hashes from the new seed.
func (c *CountMin) Reset(seed uint64) {
	c.seed = seed
	c.total = 0
	clear(c.rows)
	for i := range c.rowSeed {
		c.rowSeed[i] = hashSeed(seed, i)
	}
	c.hn = 0
	c.keep.clear()
	c.hidx.clear()
}
