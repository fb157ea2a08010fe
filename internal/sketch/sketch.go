// Package sketch provides allocation-free-after-construction streaming
// summaries of item-frequency streams: Space-Saving and Misra-Gries,
// behind one Summary interface. Misra-Gries with c counters is read off a
// Space-Saving summary with c+1 (each counter minus the minimum), so the
// two share one slot table, which finds an item's slot through an index of
// 4-byte slot numbers at load <= 1/4 (oaTable).
//
// The summaries are the per-node state of the heavy-hitter item-monitoring
// layer (topk/items): each distributed node summarises its local item
// stream in O(capacity) memory, and the per-item estimates feed the paper's
// top-k-position monitor as scalar node values (the distributed
// top-k/k-select setting of arXiv:1709.07259 over the node-value model of
// arXiv:1410.7912).
//
// Contracts shared by every Summary, pinned by the unit and fuzz suites:
//
//   - Observe never allocates after construction and never panics on any
//     (item, delta) input; delta <= 0 is ignored (counts are monotone).
//   - Estimate returns (est, bound) with |true - est| <= bound, plus the
//     tighter one-sided guarantee documented per sketch: Space-Saving never
//     under-estimates (est >= true), Misra-Gries never over-estimates
//     (est <= true). Both bounds are exact.
//   - Heavy fills dst[:0] with up to k counters in deterministic order
//     (count descending, item ascending) — byte-identical across runs,
//     worker counts, and -race.
//   - Tracked fills dst[:0] with EVERY tracked counter in slot order: no
//     sort, O(tracked). As a set it equals Heavy(capacity), with equal Count
//     and Err per item. An item Tracked does not list estimates to
//     Space-Saving's minimum counter once full (0 before), and to
//     Misra-Gries's 0.
//   - Reset(seed) rewinds to the freshly-constructed state (the repo-wide
//     replay contract; the summaries are deterministic, so the seed's value
//     is ignored).
//
// The package is self-contained by design: it imports nothing from the
// module (stdlib only), pinned by topk/boundary_test.go — sketches are
// pure data structures the engine layers consume, never the reverse.
package sketch

import "sort"

// Counter is one tracked (item, estimate) pair. Err is the per-item
// estimation bound at the time of the snapshot (0 when the count is exact).
type Counter struct {
	Item  uint64
	Count int64
	Err   int64
}

// Summary is the common interface of the streaming summaries.
type Summary interface {
	// Observe adds delta occurrences of item. delta <= 0 is ignored.
	Observe(item uint64, delta int64)
	// Estimate returns the item's estimated total count and the current
	// bound on its error: the true count lies in [est-bound, est+bound].
	Estimate(item uint64) (est, bound int64)
	// Heavy appends the up-to-k heaviest tracked counters to dst[:0] in
	// deterministic order (count descending, item ascending) and returns it.
	Heavy(k int, dst []Counter) []Counter
	// Tracked appends every tracked counter to dst[:0] in slot order (no
	// sort, O(tracked)) and returns it: Heavy(capacity) as a set.
	Tracked(dst []Counter) []Counter
	// Total returns N, the sum of all observed deltas.
	Total() int64
	// Reset rewinds to the freshly-constructed state for seed.
	Reset(seed uint64)
	// Name identifies the sketch and its sizing in reports.
	Name() string
}

// mix is the splitmix64 finalizer — the module's standard bit mixer,
// re-derived here so the package stays stdlib-only.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// --- fixed-capacity open-addressing index (item -> slot) ---
//
// Linear probing over a power-of-two table with backward-shift deletion:
// no tombstones, no growth, no allocation after construction. An entry is
// only a slot number (or -1); its key is item[slot] in the slot table's
// item array, so a probe compares item[entry] with the key and a displaced
// entry's home is mix(item[entry]). The table has at least 4 entries per
// slot, so it is never more than a quarter full and a miss, the eviction
// path's first probe, ends after about 1.4 entries. Space-Saving (hence
// Misra-Gries) uses it to find an item's slot in O(1) expected.

type oaTable struct {
	mask  uint64
	slots []int32  // slot number; -1 = empty
	item  []uint64 // slot -> item, the owner's: the key of each entry
}

// newOATable returns an index over item, whose len is the capacity: the
// smallest power of two >= 4*len(item) entries, so the load stays <= 1/4.
func newOATable(item []uint64) oaTable {
	size := 4
	for size < 4*len(item) {
		size <<= 1
	}
	t := oaTable{mask: uint64(size - 1), slots: make([]int32, size), item: item}
	t.clear()
	return t
}

func (t *oaTable) home(key uint64) uint64 { return mix(key) & t.mask }

// get returns the slot indexed for key, or -1.
func (t *oaTable) get(key uint64) int32 {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s < 0 || t.item[s] == key {
			return s
		}
	}
}

// put indexes slot under its item, item[slot], which the caller guarantees
// is not indexed yet.
func (t *oaTable) put(slot int32) {
	i := t.home(t.item[slot])
	for t.slots[i] >= 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = slot
}

// del removes slot, indexed under item[slot], back-shifting the probe chain
// so lookups stay correct without tombstones.
func (t *oaTable) del(slot int32) {
	j := t.home(t.item[slot])
	for t.slots[j] != slot {
		j = (j + 1) & t.mask
	}
	for k := j; ; {
		k = (k + 1) & t.mask
		s := t.slots[k]
		if s < 0 {
			t.slots[j] = -1
			return
		}
		// The entry at k may move into the hole at j only if its home is
		// cyclically outside (j, k].
		if (k-t.home(t.item[s]))&t.mask >= (k-j)&t.mask {
			t.slots[j] = s
			j = k
		}
	}
}

// clear empties the table in place.
func (t *oaTable) clear() {
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// --- Space-Saving's slot table ---

// slotTable is cap counter slots, the first n of them used, each holding
// an item and its count; the index finds an item's slot and ord sorts the
// slots for Heavy. Space-Saving is a slot table with a takeover error per
// slot.
//
// The table evicts the minimum (count, item) first, ties broken by the
// smallest item, so runs replay byte-identically. Counts never fall, and
// once every slot is used a count that enters is strictly above the
// minimum (Space-Saving's min + delta), so the minimum level only ever
// loses members. The floor lists them once, in
// ascending item order, when the level is found: a hit costs one compare,
// an eviction takes the first listed slot still at the level, and when the
// last one leaves, one pass over the slots finds the next level.
type slotTable struct {
	cnt    []int64  // slot -> count
	item   []uint64 // slot -> item
	level  int64    // the minimum count once every slot is used, 0 before
	live   int      // slots still at level
	at     []int32  // the slots found at level, ascending item; at[:head] have left it
	head   int
	tmp    []int32 // radix sort scratch, len cap
	cap, n int
	total  int64 // the owner's N, the sum of observed deltas
	idx    oaTable
	ord    heavyOrder
}

func newSlotTable(capacity int) slotTable {
	t := slotTable{
		cnt:  make([]int64, capacity),
		item: make([]uint64, capacity),
		at:   make([]int32, 0, capacity),
		tmp:  make([]int32, capacity),
		cap:  capacity,
	}
	t.idx = newOATable(t.item)
	t.ord = heavyOrder{order: make([]int32, 0, capacity), cnt: t.cnt, item: t.item}
	return t
}

// Total implements Summary.
func (t *slotTable) Total() int64 { return t.total }

// add gives item the next unused slot, with count c, and returns it; the
// caller checks n < cap. The floor is built once the last slot is used.
func (t *slotTable) add(item uint64, c int64) int32 {
	slot := int32(t.n)
	t.n++
	t.cnt[slot] = c
	t.item[slot] = item
	t.idx.put(slot)
	if t.n == t.cap {
		t.live = 1
		t.leave()
	}
	return slot
}

// replaceMin gives the slot of the minimum (count, item) of a full table,
// the first listed slot whose count has not risen since the level was
// found, to item with count c above the minimum, and returns it.
func (t *slotTable) replaceMin(item uint64, c int64) int32 {
	for t.cnt[t.at[t.head]] != t.level {
		t.head++
	}
	slot := t.at[t.head]
	t.idx.del(slot)
	t.item[slot] = item
	t.idx.put(slot)
	t.set(slot, c)
	return slot
}

// set raises a used slot's count to c; counts are at least 1, so before
// the floor is built (level 0) no slot leaves it. The last slot to leave
// the level finds the next one, so reads never rebuild.
func (t *slotTable) set(slot int32, c int64) {
	old := t.cnt[slot]
	t.cnt[slot] = c
	if old == t.level {
		t.leave()
	}
}

// clear empties the table in place; slots are reused from 0.
func (t *slotTable) clear() {
	t.n, t.total, t.level, t.live = 0, 0, 0, 0
	t.idx.clear()
}

// leave counts down the slots at the level. When none is left it finds the
// minimum count over every slot and lists the slots holding it in
// ascending item order.
func (t *slotTable) leave() {
	if t.live--; t.live > 0 {
		return
	}
	level := t.cnt[0]
	for _, c := range t.cnt[1:] {
		level = min(level, c)
	}
	at := t.at[:0]
	for s, c := range t.cnt {
		if c == level {
			at = append(at, int32(s))
		}
	}
	t.at, t.level, t.live, t.head = at, level, len(at), 0
	t.sortAt()
}

// sortAt sorts t.at by item: insertion sort for a few slots, else an LSD
// radix sort over only the bytes in which the listed items differ (two
// passes for items below 2^16), through tmp. A comparison sort here is
// bound by mispredicted branches.
func (t *slotTable) sortAt() {
	at, item := t.at, t.item
	if len(at) <= 24 {
		for i := 1; i < len(at); i++ {
			s := at[i]
			v := item[s]
			j := i
			for ; j > 0 && item[at[j-1]] > v; j-- {
				at[j] = at[j-1]
			}
			at[j] = s
		}
		return
	}
	var diff uint64
	for _, s := range at[1:] {
		diff |= item[s] ^ item[at[0]]
	}
	src, dst := at, t.tmp[:len(at)]
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var next [256]int32
		for _, s := range src {
			next[byte(item[s]>>shift)]++
		}
		sum := int32(0)
		for b, n := range next {
			next[b] = sum
			sum += n
		}
		for _, s := range src {
			b := byte(item[s] >> shift)
			dst[next[b]] = s
			next[b]++
		}
		src, dst = dst, src
	}
	t.at, t.tmp = src, dst[:cap(dst)]
}

// heavyOrder sorts slot indices by (count descending, item ascending) —
// the package-wide deterministic iteration order. It implements
// sort.Interface over caller-owned parallel slices so sorting allocates
// nothing (the *heavyOrder to sort.Interface conversion is a pointer, not
// a box).
type heavyOrder struct {
	order []int32
	cnt   []int64
	item  []uint64
}

func (h *heavyOrder) Len() int { return len(h.order) }
func (h *heavyOrder) Less(a, b int) bool {
	x, y := h.order[a], h.order[b]
	if h.cnt[x] != h.cnt[y] {
		return h.cnt[x] > h.cnt[y]
	}
	return h.item[x] < h.item[y]
}
func (h *heavyOrder) Swap(a, b int) { h.order[a], h.order[b] = h.order[b], h.order[a] }

// heavy fills dst[:0] with the top-k of the used slots under heavyOrder,
// reading the per-slot error from errAt (nil = all zero).
func (t *slotTable) heavy(k int, dst []Counter, errAt []int64) []Counter {
	h := &t.ord
	h.order = h.order[:0]
	for s := 0; s < t.n; s++ {
		h.order = append(h.order, int32(s))
	}
	sort.Sort(h)
	dst = dst[:0]
	for _, s := range h.order[:min(k, t.n)] {
		c := Counter{Item: t.item[s], Count: t.cnt[s]}
		if errAt != nil {
			c.Err = errAt[s]
		}
		dst = append(dst, c)
	}
	return dst
}
