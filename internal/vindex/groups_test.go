package vindex

import (
	"slices"
	"testing"

	"topkmon/internal/rngx"
)

// checkGroups holds gs to a reference id → group map (ref[id-base]): Len
// and Members of every group, Members of every run of adjacent groups, and
// the id-to-position map agreeing with the layout.
func checkGroups(t *testing.T, gs *Groups, base int, ref []int) {
	t.Helper()
	g := len(gs.start) - 1
	want := make([][]int32, g) // want[k]: the ids of group k, ascending
	for i, k := range ref {
		want[k] = append(want[k], int32(base+i))
	}
	for k := range g {
		got := slices.Sorted(slices.Values(gs.Members(k, k)))
		if gs.Len(k) != len(want[k]) || !slices.Equal(got, want[k]) {
			t.Fatalf("group %d: Len %d, Members %v; the reference holds %v", k, gs.Len(k), got, want[k])
		}
	}
	for g0 := range g {
		size := 0
		for g1 := g0; g1 < g; g1++ {
			size += len(want[g1])
			run := gs.Members(g0, g1)
			if len(run) != size {
				t.Fatalf("Members(%d, %d) holds %d ids, the groups %d", g0, g1, len(run), size)
			}
			for _, id := range run {
				if k := ref[int(id)-base]; k < g0 || k > g1 {
					t.Fatalf("Members(%d, %d) holds id %d of group %d", g0, g1, id, k)
				}
			}
		}
		if m := gs.Members(g0+1, g0); len(m) != 0 {
			t.Fatalf("Members(%d, %d) of an empty run = %v", g0+1, g0, m)
		}
	}
	for p, id := range gs.ids {
		if gs.pos[int(id)-base] != int32(p) {
			t.Fatalf("pos of id %d = %d, ids has it at %d", id, gs.pos[int(id)-base], p)
		}
	}
}

// TestGroupsRandomMoves drives Groups with random Move sequences at 2, 8
// and numBuckets groups against a reference id → group map, and checks
// Members, Len and the layout after every move, and after Reset. It also
// holds the property nodecore.Shard's violator recheck rests on: a forward
// walk over the ids of group 1 that moves some of the visited ids to
// group 0 — each move swapping the id with the group's first member, which
// the walk has already passed — visits every original member exactly once.
func TestGroupsRandomMoves(t *testing.T) {
	const base, n, moves = 7, 61, 3000
	for _, g := range []int{2, 8, numBuckets} {
		r := rngx.New(uint64(99 + g))
		gs := NewGroups(base, n, g)
		ref := make([]int, n)
		checkGroups(t, gs, base, ref)
		cleared := 0 // ids the walks moved out of group 1
		for range moves {
			i, to := r.Intn(n), r.Intn(g)
			if r.Intn(4) == 0 { // short moves, across one boundary or none
				to = min(max(ref[i]+r.Intn(3)-1, 0), g-1)
			}
			gs.Move(base+i, ref[i], to)
			ref[i] = to
			checkGroups(t, gs, base, ref)

			if r.Intn(50) != 0 {
				continue
			}
			// The walk: clear a random share of group 1's members as they
			// are visited, never adding one.
			orig := slices.Clone(gs.Members(1, 1))
			var seen []int32
			for _, id := range gs.Members(1, 1) {
				seen = append(seen, id)
				if r.Intn(2) == 0 {
					gs.Move(int(id), 1, 0)
					ref[int(id)-base] = 0
					cleared++
				}
			}
			slices.Sort(orig)
			slices.Sort(seen)
			if !slices.Equal(seen, orig) {
				t.Fatalf("g=%d: a forward walk clearing group 1 visited %v, its members were %v", g, seen, orig)
			}
			checkGroups(t, gs, base, ref)
		}
		if cleared == 0 {
			t.Fatalf("g=%d: no walk moved an id out of group 1: the walk was never exercised", g)
		}
		gs.Reset()
		clear(ref)
		checkGroups(t, gs, base, ref)
	}
}
