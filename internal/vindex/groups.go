package vindex

// Groups partitions the ids [base, base+n) into a fixed number of groups,
// 0 … g−1, held in one flat array grouped by ascending group (ids), with a
// boundary offset per group (start) and, per id, its position. Which group
// an id is in is its owner's record, which Move takes. Every array is
// allocated once and never grows:
//
//   - Move takes an id to another group with one swap and one boundary
//     shift per group boundary it crosses, so it costs O(|group
//     distance|) writes and allocates nothing.
//   - Members returns the ids of a run of adjacent groups as one zero-copy
//     subslice of ids, since adjacent groups are contiguous in it.
//
// Index is Groups over the value buckets; nodecore.Shard keeps a second
// one over its tag classes.
type Groups struct {
	base int

	// ids holds every id exactly once, grouped by ascending group;
	// start[g] is the offset of group g's segment, so group g is
	// ids[start[g]:start[g+1]] (possibly empty).
	ids   []int32
	start []int32

	// pos[id-base] is the id's position in ids.
	pos []int32
}

// NewGroups returns the ids [base, base+n) partitioned into g ≤ 256
// groups, every id in group 0.
func NewGroups(base, n, g int) *Groups {
	gs := &Groups{}
	gs.init(base, n, g)
	return gs
}

func (gs *Groups) init(base, n, g int) {
	*gs = Groups{
		base:  base,
		ids:   make([]int32, n),
		start: make([]int32, g+1),
		pos:   make([]int32, n),
	}
	gs.Reset()
}

// Reset puts every id back into group 0, in ascending order. It reuses the
// arrays and allocates nothing.
func (gs *Groups) Reset() {
	for i := range gs.ids {
		gs.ids[i] = int32(gs.base + i)
		gs.pos[i] = int32(i)
	}
	gs.start[0] = 0
	for g := 1; g < len(gs.start); g++ {
		gs.start[g] = int32(len(gs.ids))
	}
}

// Members returns the ids of the groups g0 … g1: a zero-copy view into the
// partition, in no particular order, valid only until the next Move or
// Reset, which callers must not modify. g0 > g1 yields an empty slice.
func (gs *Groups) Members(g0, g1 int) []int32 {
	if g0 > g1 {
		return nil
	}
	return gs.ids[gs.start[g0]:gs.start[g1+1]]
}

// Len returns the number of ids in group g.
func (gs *Groups) Len(g int) int { return int(gs.start[g+1] - gs.start[g]) }

// Move takes id from group from, which must be its group, into group to.
// The move walks the group boundaries between the two — one swap plus one
// boundary shift each — so it costs O(|group distance|) and never
// allocates.
func (gs *Groups) Move(id, from, to int) {
	p := gs.pos[id-gs.base]
	for b := from; b < to; b++ {
		// Swap to the end of group b, then pull b+1's boundary back over
		// the id so it becomes the first element of group b+1.
		last := gs.start[b+1] - 1
		gs.swap(p, last)
		gs.start[b+1] = last
		p = last
	}
	for b := from; b > to; b-- {
		// Symmetric: swap to the front of group b, push the boundary
		// forward, and the id becomes the last element of group b-1.
		first := gs.start[b]
		gs.swap(p, first)
		gs.start[b] = first + 1
		p = first
	}
}

func (gs *Groups) swap(a, b int32) {
	if a == b {
		return
	}
	ia, ib := gs.ids[a], gs.ids[b]
	gs.ids[a], gs.ids[b] = ib, ia
	gs.pos[ia-int32(gs.base)], gs.pos[ib-int32(gs.base)] = b, a
}
