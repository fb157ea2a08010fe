package nodecore

import (
	"reflect"
	"slices"
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// checkActive asserts the active-list invariant: the list ScanList returns,
// with any pending raise applied, is exactly the ids of the nodes MaxFind
// calls active before it is applied, in ascending order.
func checkActive(t *testing.T, sh *Shard) {
	t.Helper()
	var want []int32
	for _, id := range sh.IDs() {
		if active, _ := sh.MaxFind(int(id)); active {
			want = append(want, id)
		}
	}
	if got := sh.ScanList(wire.AboveActive(-1)); !slices.Equal(got, want) {
		t.Fatalf("active list holds %d nodes, MaxFind calls %d active", len(got), len(want))
	}
}

// refNode is one node's max-find flags as per-node handlers of the three
// broadcasts would keep them: the oracle the tests below hold the Shard's
// lists to.
type refNode struct{ active, excluded bool }

// init is the handler of MaxFindInit(floor, reset) at a node holding value.
func (r *refNode) init(value, floor int64, reset bool) {
	if reset {
		r.excluded = false
	}
	r.active = !r.excluded && value > floor
}

// raise is the handler of the max-find raise broadcast (holder, best) at
// node id holding value: the holder and every node not exceeding best drop
// out.
func (r *refNode) raise(id, holder int, value, best int64) {
	if id == holder || value <= best {
		r.active = false
	}
}

// exclude is the handler of MaxFindExclude(target) at node id.
func (r *refNode) exclude(id, target int) {
	if id == target {
		r.active, r.excluded = false, true
	}
}

// The value shapes that stress the bucket coarsening hardest, as in the
// lockstep index property test.
func testDistributions(r *rngx.Source) map[string]func(i int) int64 {
	return map[string]func(i int) int64{
		"random":    func(int) int64 { return r.Int63n(1 << 30) },
		"all-equal": func(int) int64 { return 4711 }, // every node in one bucket
		"one-hot-bucket": func(i int) int64 { // dense cluster + sparse rest
			if i%8 == 0 {
				return r.Int63n(eps.MaxValue)
			}
			return (1 << 20) + r.Int63n(1<<19)
		},
		"bucket-boundaries": func(int) int64 { // 2^k-1 / 2^k straddles
			return int64(1)<<uint(1+r.Intn(38)) - r.Int63n(2)
		},
		"all-zero": func(int) int64 { return 0 },
	}
}

// TestMatchersEqualFilteredScanList is the property the engines' sweeps
// rest on: for every predicate kind, over the adversarial value shapes and
// under churn from every Shard mutator — unicast and broadcast filter
// assignments, the three max-find broadcasts and Reset — the matcher form
// returns exactly the ids of ScanList whose nodes Match — which are exactly
// the ids of a full scan that Match, and what Keep keeps of IDs — in
// ascending order; ScanSize is the length of that ScanList, Collect
// reports exactly the matchers, and so do Resolve's count and Senders at
// every rank.
func TestMatchersEqualFilteredScanList(t *testing.T) {
	const base, n, rounds = 300, 133, 60
	for name := range testDistributions(rngx.New(0)) {
		t.Run(name, func(t *testing.T) {
			r := rngx.New(911)
			dist := testDistributions(r)[name]
			sh := NewShard(base, n)
			matched := 0
			for round := 0; round < rounds; round++ {
				for i := range sh.Len() {
					if round == 0 || r.Intn(3) == 0 {
						sh.Install(base+i, dist(i))
					}
				}
				switch round % 7 {
				case 0:
					lo := r.Int63n(1 << 22)
					sh.SetFilter(base+r.Intn(n), filter.Make(lo, lo+r.Int63n(1<<22)))
				case 1:
					sh.MaxFindInit(r.Int63n(1<<21), round%14 == 1)
				case 2:
					sh.MaxFindRaise(base+r.Intn(n), r.Int63n(1<<29))
				case 3:
					sh.MaxFindExclude(base + r.Intn(n))
				case 4:
					lo := r.Int63n(1 << 22)
					sh.SetTagFilter(base+r.Intn(n), wire.Tag(r.Intn(int(wire.NumTags))), filter.Make(lo, lo+r.Int63n(1<<22)))
				case 5:
					lo := r.Int63n(1 << 22)
					sh.ApplyRule(new(wire.FilterRule).
						WithRetag(wire.TagV2, wire.TagNone).
						With(wire.TagNone, filter.Make(lo, lo+r.Int63n(1<<22))))
				case 6:
					sh.Reset()
				}
				checkActive(t, sh)

				lo := r.Int63n(1 << 30)
				for _, p := range []wire.Pred{
					wire.Violating(),
					wire.AboveActive(-1),
					wire.AboveActive(r.Int63n(1 << 30)),
					wire.InRange(lo, lo+r.Int63n(1<<28)),
					wire.InRange(9, 3),
					wire.InRange(0, eps.MaxValue),
					wire.InRange(4711, 4711),
					wire.HasTag(wire.TagNone),
					wire.HasTag(wire.TagV2),
				} {
					var filtered, full []int32
					var reports []wire.Report
					scan := sh.ScanList(p)
					if got := sh.ScanSize(p); got != len(scan) {
						t.Fatalf("round %d %+v: ScanSize %d, ScanList has %d nodes", round, p, got, len(scan))
					}
					for _, id := range scan {
						if sh.Match(int(id), p) {
							filtered = append(filtered, id)
						}
					}
					for _, id := range sh.IDs() {
						if sh.Match(int(id), p) {
							full = append(full, id)
							reports = append(reports, sh.Node(int(id)).Report())
						}
					}
					if got := sh.Keep(p, sh.IDs()); !slices.Equal(got, full) {
						t.Fatalf("round %d %+v: Keep over IDs keeps %d nodes, a full scan matches %d",
							round, p, len(got), len(full))
					}
					got := sh.Matchers(p)
					if !slices.Equal(got, filtered) {
						t.Fatalf("round %d %+v: Matchers returns %d nodes, ScanList filtered by Match %d",
							round, p, len(got), len(filtered))
					}
					if !slices.Equal(got, full) {
						t.Fatalf("round %d %+v: Matchers returns %d nodes, a full scan matches %d",
							round, p, len(got), len(full))
					}
					if col := sh.Collect(nil, p); !reflect.DeepEqual(col, reports) || sh.Kept() != len(got) {
						t.Fatalf("round %d %+v: Collect reports %d of %d matchers, or moved the kept list (%d)",
							round, p, len(col), len(reports), sh.Kept())
					}
					if m := sh.Resolve(p); m != len(full) {
						t.Fatalf("round %d %+v: Resolve counts %d matchers, a full scan matches %d", round, p, m, len(full))
					}
					ranks := make([]int32, len(full))
					for i := range ranks {
						ranks[i] = int32(i)
					}
					if snd := sh.Senders(nil, ranks); !reflect.DeepEqual(snd, reports) {
						t.Fatalf("round %d %+v: Senders at every rank reports %v, the matchers are %v", round, p, snd, reports)
					}
					matched += len(got)
				}
			}
			if matched == 0 {
				t.Fatal("no predicate ever matched a node: the property was never exercised")
			}
		})
	}
}

// TestActiveListMirrorsTheFlag pins the three edges of the active-list
// invariant a sweep cannot see: a value change leaves the list alone (Keep
// decides per sweep), Exclude benches a node that is not on the list, and
// Reset empties it.
func TestActiveListMirrorsTheFlag(t *testing.T) {
	sh := NewShard(10, 6)
	for i := range sh.Len() {
		sh.Install(10+i, int64(100*(i+1))) // 100 .. 600
	}
	sh.MaxFindInit(250, true) // ids 12..15 active
	checkActive(t, sh)
	if got := len(sh.Matchers(wire.AboveActive(-1))); got != 4 {
		t.Fatalf("%d active nodes above -1, want 4", got)
	}

	sh.Install(13, 0) // id 13 drops to 0 and stays active
	checkActive(t, sh)
	if got := len(sh.Matchers(wire.AboveActive(-1))); got != 4 {
		t.Errorf("%d active nodes above -1 after a value change, want 4 (the flag did not move)", got)
	}
	if got := len(sh.Matchers(wire.AboveActive(50))); got != 3 {
		t.Errorf("%d active nodes above 50, want 3 (Match tests the value)", got)
	}

	sh.MaxFindExclude(10) // id 10 was never active
	if _, excluded := sh.MaxFind(10); !excluded {
		t.Error("Exclude of a node off the list did not exclude it")
	}
	sh.MaxFindExclude(14) // from the middle of the list
	checkActive(t, sh)
	sh.MaxFindInit(-1, false)
	checkActive(t, sh)
	a10, _ := sh.MaxFind(10)
	a14, _ := sh.MaxFind(14)
	if a10 || a14 {
		t.Error("a non-resetting Init re-activated an excluded node")
	}

	sh.Reset()
	checkActive(t, sh)
	if got := sh.ScanList(wire.AboveActive(-1)); len(got) != 0 {
		t.Errorf("Reset left %d nodes on the active list", len(got))
	}
}

// TestRaisedFloorShortcut pins the floor watermark: a resolve of
// AboveActive(x) over the active list with x at or below the floor keeps
// the list without testing a node, and everything that could make that
// wrong takes the shortcut away. A node value changed behind the Shard's
// back (which the contract forbids) tells the two paths apart: the
// shortcut keeps that node, a re-filter drops it.
func TestRaisedFloorShortcut(t *testing.T) {
	sh := NewShard(10, 6)
	for i := range sh.Len() {
		sh.Install(10+i, int64(100*(i+1))) // 100 .. 600
	}
	sh.MaxFindInit(250, true) // ids 12..15 active, floor 250
	if sh.floor != 250 {
		t.Fatalf("Init set the floor to %d, want 250", sh.floor)
	}
	sh.Node(13).Value = 0 // behind the Shard's back: only the shortcut keeps it
	if got := sh.Matchers(wire.AboveActive(250)); !slices.Equal(got, []int32{12, 13, 14, 15}) || !sh.isActive(got) {
		t.Fatalf("AboveActive(250) at floor 250 keeps %v, want the active list itself (the shortcut)", got)
	}
	if got := sh.Matchers(wire.AboveActive(251)); !slices.Equal(got, []int32{12, 14, 15}) {
		t.Fatalf("AboveActive(251) above the floor keeps %v, want a re-filter", got)
	}
	if got := sh.Keep(wire.AboveActive(250), sh.IDs()); !slices.Equal(got, []int32{12, 14, 15}) {
		t.Fatalf("AboveActive(250) over IDs keeps %v: a full scan must never take the shortcut", got)
	}

	// A full scan equal to the active list in content is still not it.
	sh.MaxFindInit(-1, true) // all six active, floor -1
	sh.Node(11).Value = -1
	if got := sh.Keep(wire.AboveActive(-1), sh.IDs()); !slices.Equal(got, []int32{10, 12, 13, 14, 15}) {
		t.Fatalf("AboveActive(-1) over IDs with every node active keeps %v, want a re-filter", got)
	}
	sh.Install(11, 200)

	// Install of an active node at or below the floor invalidates it; one
	// above it does not.
	sh.MaxFindInit(250, true) // ids 12..15 active again
	sh.Install(14, 900)
	if sh.floor != 250 {
		t.Fatalf("Install above the floor moved it to %d", sh.floor)
	}
	sh.Install(11, 0) // inactive: the floor holds
	if sh.floor != 250 {
		t.Fatalf("Install of an inactive node moved the floor to %d", sh.floor)
	}
	sh.Install(13, 250)
	if got := sh.Matchers(wire.AboveActive(250)); !slices.Equal(got, []int32{12, 14, 15}) {
		t.Fatalf("after Install(13, 250) AboveActive(250) keeps %v, want a re-filter", got)
	}

	// Raise restores a floor: the larger of the old one and best.
	sh.MaxFindRaise(15, 300) // ids 14 (900) and 15 (600) above; 15 holds
	if sh.floor != 300 || !slices.Equal(sh.ScanList(wire.AboveActive(-1)), []int32{14}) {
		t.Fatalf("after Raise(15, 300): floor %d, active %v; want 300 and [14]", sh.floor, sh.ScanList(wire.AboveActive(-1)))
	}
	sh.MaxFindRaise(99, 200) // a holder of another shard, best below the floor
	if sh.floor != 300 {
		t.Fatalf("Raise with best 200 under floor 300 moved it to %d", sh.floor)
	}

	// A holder whose value exceeds best still leaves the list.
	sh.MaxFindInit(-1, true)
	sh.MaxFindRaise(14, 550) // 14 holds 900, 15 holds 600
	a14, _ := sh.MaxFind(14)
	a15, _ := sh.MaxFind(15)
	checkActive(t, sh)
	if a14 || !a15 {
		t.Fatalf("Raise(14, 550): 14 active=%v, 15 active=%v; want false, true", a14, a15)
	}

	sh.Reset()
	if sh.floor != noFloor {
		t.Fatalf("Reset left the floor at %d", sh.floor)
	}
}

// TestShardAllocs pins "a node is a row": building a shard allocates a
// fixed number of blocks whatever its size — no object per node — and
// Reset allocates nothing.
func TestShardAllocs(t *testing.T) {
	build := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { NewShard(0, n) })
	}
	if small, large := build(64), build(65536); small != large {
		t.Errorf("NewShard allocates %v blocks at n=64 and %v at n=65536, want the same", small, large)
	}
	sh := NewShard(0, 4096)
	if a := testing.AllocsPerRun(10, func() { sh.Reset() }); a != 0 {
		t.Errorf("Shard.Reset allocates %v blocks, want 0", a)
	}
}

// Matchers is Keep over ScanList(p): the ids of the nodes matching p, in
// ascending order, kept for Senders.
func (s *Shard) Matchers(p wire.Pred) []int32 { return s.Keep(p, s.ScanList(p)) }

// Match is the per-node reference of a predicate over a shard: Node.Match,
// and for the max-find predicate also the node's activity (MaxFind).
func (s *Shard) Match(id int, p wire.Pred) bool {
	if active, _ := s.MaxFind(id); !active && p.Kind == wire.PredAboveActive {
		return false
	}
	return s.Node(id).Match(p)
}

// TestRaiseMatchesNodeHandler holds the Shard's MaxFindRaise — recorded,
// then applied by the next read of the active list in one pass that tests
// values and drops the holder — to the per-node handler (refNode.raise)
// applied to every row: the same flags on every node, for holders inside
// and outside the shard, above, at and below best, read while the raise is
// pending and after a read applied it; and the raise writes no row.
func TestRaiseMatchesNodeHandler(t *testing.T) {
	const base, n = 40, 97
	r := rngx.New(5)
	sh := NewShard(base, n)
	ref := make([]refNode, n)
	check := func(round int, what string) {
		t.Helper()
		for i := range ref {
			if active, excluded := sh.MaxFind(base + i); active != ref[i].active || excluded != ref[i].excluded {
				t.Fatalf("round %d, %s: node %d active=%v excluded=%v, the node handlers make it %v, %v",
					round, what, base+i, active, excluded, ref[i].active, ref[i].excluded)
			}
		}
	}
	for round := range 200 {
		for i := range n {
			if round%5 == 0 || r.Intn(4) == 0 {
				sh.Install(base+i, r.Int63n(64))
			}
		}
		if round%3 == 0 {
			floor, reset := r.Int63n(32)-1, round%6 == 0
			sh.MaxFindInit(floor, reset)
			for i := range ref {
				ref[i].init(sh.nodes[i].Value, floor, reset)
			}
		}
		if round%7 == 3 {
			id := base + r.Intn(n)
			sh.MaxFindExclude(id)
			for i := range ref {
				ref[i].exclude(base+i, id)
			}
		}
		holder, best := base-2+r.Intn(n+4), r.Int63n(64)
		rows := slices.Clone(sh.nodes)
		for i := range ref {
			ref[i].raise(base+i, holder, sh.nodes[i].Value, best)
		}
		sh.MaxFindRaise(holder, best)
		if !slices.Equal(sh.nodes, rows) {
			t.Fatalf("round %d: Raise(%d, %d) wrote a row", round, holder, best)
		}
		check(round, "pending")
		if round%2 == 0 { // else the next round's Install applies it
			checkActive(t, sh)
			check(round, "applied")
		}
	}
}
