// Package sketch provides allocation-free-after-construction streaming
// summaries of item-frequency streams: Space-Saving, Misra-Gries, and
// Count-Min, behind one Summary interface. Misra-Gries with c counters is
// read off a Space-Saving summary with c+1 (each counter minus the
// minimum), so the two deterministic summaries share one implementation.
// They are the per-node state of the heavy-hitter item-monitoring layer
// (topk/items): each distributed node summarises its local item stream in
// O(capacity) memory, and the per-item estimates feed the paper's
// top-k-position monitor as scalar node values (the distributed
// top-k/k-select setting of arXiv:1709.07259 over the node-value model of
// arXiv:1410.7912).
//
// Contracts shared by every Summary, pinned by the unit and fuzz suites:
//
//   - Observe never allocates after construction and never panics on any
//     (item, delta) input; delta <= 0 is ignored (counts are monotone).
//   - Estimate returns (est, bound) with |true - est| <= bound, plus the
//     tighter one-sided guarantee documented per sketch: Space-Saving and
//     Count-Min never under-estimate (est >= true), Misra-Gries never
//     over-estimates (est <= true).
//   - Heavy fills dst[:0] with up to k counters in deterministic order
//     (count descending, item ascending) — byte-identical across runs,
//     worker counts, and -race.
//   - Tracked fills dst[:0] with EVERY tracked counter in slot order: no
//     sort, O(tracked). As a set it equals Heavy(capacity), with equal Count
//     and Err per item.
//   - UntrackedEstimate states what Estimate answers for every item Tracked
//     does not list, when that is one number: Space-Saving's minimum counter
//     once full and 0 before, Misra-Gries's 0. The deterministic counter
//     sketches say (est, true); Count-Min, whose untracked estimate is a
//     per-item read of the hashed table, says (0, false). This is the
//     deterministic/probabilistic split as a method: a caller summing
//     estimates over many summaries (topk/items.Step) needs Estimate only
//     for summaries that answer false.
//   - Reset(seed) rewinds to the state a fresh construction with that seed
//     would produce (the repo-wide replay contract; the deterministic
//     sketches ignore the seed's value but honor the rewind).
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
	// UntrackedEstimate returns the est Estimate answers for every item
	// Tracked does not list, and true — or (0, false) when that estimate
	// differs per item, so only Estimate can tell.
	UntrackedEstimate() (est int64, uniform bool)
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

// hashSeed derives the i-th hash-function seed from a root seed.
func hashSeed(seed uint64, i int) uint64 {
	return mix(seed + 0x9e3779b97f4a7c15*uint64(i+1))
}

// --- fixed-capacity open-addressing index (item -> slot) ---
//
// Linear probing over a power-of-two table with backward-shift deletion:
// no tombstones, no growth, no allocation after construction. Space-Saving
// (hence Misra-Gries) and Count-Min's keeper use it to find an item's slot
// in O(1) expected.

type oaTable struct {
	mask uint64
	keys []uint64
	vals []int32 // slot index; -1 = empty
}

// newOATable returns a table holding up to cap entries at load factor <= ~0.5.
func newOATable(capacity int) oaTable {
	size := 4
	for size < 2*capacity {
		size <<= 1
	}
	t := oaTable{mask: uint64(size - 1), keys: make([]uint64, size), vals: make([]int32, size)}
	for i := range t.vals {
		t.vals[i] = -1
	}
	return t
}

func (t *oaTable) home(key uint64) uint64 { return mix(key) & t.mask }

// get returns the slot stored for key, or -1.
func (t *oaTable) get(key uint64) int32 {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		if t.vals[i] == -1 {
			return -1
		}
		if t.keys[i] == key {
			return t.vals[i]
		}
	}
}

// put inserts or overwrites key -> slot. The caller guarantees the table
// never exceeds its construction capacity.
func (t *oaTable) put(key uint64, slot int32) {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		if t.vals[i] == -1 || t.keys[i] == key {
			t.keys[i] = key
			t.vals[i] = slot
			return
		}
	}
}

// del removes key, back-shifting the probe chain so lookups stay correct
// without tombstones.
func (t *oaTable) del(key uint64) {
	i := t.home(key)
	for {
		if t.vals[i] == -1 {
			return
		}
		if t.keys[i] == key {
			break
		}
		i = (i + 1) & t.mask
	}
	j := i
	for {
		t.vals[j] = -1
		k := j
		for {
			k = (k + 1) & t.mask
			if t.vals[k] == -1 {
				return
			}
			h := t.home(t.keys[k])
			// Entry at k may move into the hole at j only if its home
			// position is cyclically outside (j, k].
			if (k-h)&t.mask >= (k-j)&t.mask {
				t.keys[j] = t.keys[k]
				t.vals[j] = t.vals[k]
				break
			}
		}
		j = k
	}
}

// clear empties the table in place.
func (t *oaTable) clear() {
	for i := range t.vals {
		t.vals[i] = -1
	}
}

// --- shared floor of the minimum count ---

// slotFloor holds the counter slots of Space-Saving and of Count-Min's
// keeper and their eviction order: the minimum (count, item) first, ties
// broken by the smallest item, so runs replay byte-identically. Counts
// never fall, and once every slot is used a count that enters is strictly
// above the minimum (Space-Saving's min + delta, the keeper's est > min),
// so the minimum level only ever loses members. The floor lists them once,
// in ascending item order, when the level is found: a hit costs one
// compare, an eviction takes the first listed slot still at the level, and
// when the last one leaves, one pass over the slots finds the next level.
// The owner writes a used slot's count through set; a new slot's count and
// item it writes itself, then calls push.
type slotFloor struct {
	cnt   []int64  // slot -> count
	item  []uint64 // slot -> item
	level int64    // the minimum count once every slot is used, 0 before
	live  int      // slots still at level
	at    []int32  // the slots found at level, ascending item; at[:head] have left it
	head  int
	tmp   []int32 // radix sort scratch, len capacity
}

func newSlotFloor(capacity int) slotFloor {
	return slotFloor{
		cnt:  make([]int64, capacity),
		item: make([]uint64, capacity),
		at:   make([]int32, 0, capacity),
		tmp:  make([]int32, capacity),
	}
}

// set raises a used slot's count to c; counts are at least 1, so before
// the floor is built (level 0) no slot leaves it. The last slot to leave
// the level finds the next one, so reads never rebuild.
func (f *slotFloor) set(slot int32, c int64) {
	old := f.cnt[slot]
	f.cnt[slot] = c
	if old == f.level {
		f.leave()
	}
}

// min returns the slot with the smallest (count, item) of a full floor:
// the first listed slot whose count has not risen since the level was found.
func (f *slotFloor) min() int32 {
	for f.cnt[f.at[f.head]] != f.level {
		f.head++
	}
	return f.at[f.head]
}

// push reports that slot, the next unused one, now holds a count and an
// item; the floor is built once the last slot is used.
func (f *slotFloor) push(slot int32) {
	if int(slot) == len(f.cnt)-1 {
		f.live = 1
		f.leave()
	}
}

// clear empties the floor in place; slots are reused from 0.
func (f *slotFloor) clear() { f.level, f.live = 0, 0 }

// leave counts down the slots at the level. When none is left it finds the
// minimum count over every slot and lists the slots holding it in
// ascending item order.
func (f *slotFloor) leave() {
	if f.live--; f.live > 0 {
		return
	}
	level := f.cnt[0]
	for _, c := range f.cnt[1:] {
		level = min(level, c)
	}
	at := f.at[:0]
	for s, c := range f.cnt {
		if c == level {
			at = append(at, int32(s))
		}
	}
	f.at, f.level, f.live, f.head = at, level, len(at), 0
	f.sortAt()
}

// sortAt sorts f.at by item: insertion sort for a few slots, else an LSD
// radix sort over only the bytes in which the listed items differ (two
// passes for items below 2^16), through tmp. A comparison sort here is
// bound by mispredicted branches.
func (f *slotFloor) sortAt() {
	at, item := f.at, f.item
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
	src, dst := at, f.tmp[:len(at)]
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
	f.at, f.tmp = src, dst[:cap(dst)]
}

// --- shared deterministic Heavy ordering ---

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

// appendHeavy fills dst[:0] with the top-k of the used slots under
// heavyOrder, reading the per-slot error from errAt (nil = all zero).
func appendHeavy(h *heavyOrder, used int, k int, dst []Counter, errAt []int64) []Counter {
	h.order = h.order[:0]
	for s := 0; s < used; s++ {
		h.order = append(h.order, int32(s))
	}
	sort.Sort(h)
	dst = dst[:0]
	if k > used {
		k = used
	}
	for _, s := range h.order[:k] {
		c := Counter{Item: h.item[s], Count: h.cnt[s]}
		if errAt != nil {
			c.Err = errAt[s]
		}
		dst = append(dst, c)
	}
	return dst
}
