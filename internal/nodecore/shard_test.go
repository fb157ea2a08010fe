package nodecore

import (
	"fmt"
	"math"
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
// node id holding value: the holder and every node not above (best,
// holder) in the max-find order drop out.
func (r *refNode) raise(id, holder int, value, best int64) {
	if id == holder || !wire.Above(value, int64(id), best, int64(holder)) {
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
	sh.rows[13-10].value = 0 // behind the Shard's back: only the shortcut keeps it
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
	sh.rows[11-10].value = -1
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
				ref[i].init(sh.rows[i].value, floor, reset)
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
		rows := slices.Clone(sh.rows)
		for i := range ref {
			ref[i].raise(base+i, holder, sh.rows[i].value, best)
		}
		sh.MaxFindRaise(holder, best)
		if !slices.Equal(sh.rows, rows) {
			t.Fatalf("round %d: Raise(%d, %d) wrote a row", round, holder, best)
		}
		check(round, "pending")
		if round%2 == 0 { // else the next round's Install applies it
			checkActive(t, sh)
			check(round, "applied")
		}
	}
}

// BenchmarkInitPaths times the two ways a MaxFindInit at a floor builds its
// active list, from the value index's span (initRouted) and by the pass
// over the rows (initPass), at n = 2^10 and 2^18 over spans that hold a
// 64th to all of the shard, every node of the span above the floor and a
// probe's worth of exclusions in place. It places initSpan's cutoff.
func BenchmarkInitPaths(b *testing.B) {
	const floor = 1<<20 - 1
	for _, n := range []int{1 << 10, 1 << 18} {
		for _, den := range []int{64, 32, 16, 8, 4, 2, 1} {
			sh, r := NewShard(0, n), rngx.New(uint64(n+den))
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = 1 + r.Int63n(1<<10)
			}
			for _, i := range r.Perm(n)[:n/den] {
				vals[i] = floor + 1 + r.Int63n(1<<20)
			}
			sh.Advance(vals, nil)
			for _, i := range r.Perm(n)[:8] {
				sh.MaxFindExclude(i)
			}
			span := sh.idx.Span(floor+1, eps.MaxValue)
			name := fmt.Sprintf("n=%d/span=1_%d", n, den)
			b.Run(name+"/routed", func(b *testing.B) {
				for range b.N {
					sh.active = sh.initRouted(span, floor)
				}
			})
			b.Run(name+"/pass", func(b *testing.B) {
				for range b.N {
					sh.active = sh.initPass(floor)
				}
			})
		}
	}
}

// randomRule returns one broadcast rule over intervals inside [0, top): a
// protocol's shape — a two-tag update, a retag of every tag to one,
// DENSE's round rule with a random disband — or a random retag map with
// random sets, which may set tags no node holds.
func randomRule(r *rngx.Source, top int64) *wire.FilterRule {
	iv := func() filter.Interval {
		lo := r.Int63n(top)
		if r.Intn(8) == 0 {
			return filter.Make(lo, lo/2) // empty: every value violates
		}
		return filter.Make(lo, lo+r.Int63n(top))
	}
	tag := func() wire.Tag { return wire.Tag(r.Intn(int(wire.NumTags))) }
	rule := new(wire.FilterRule)
	switch r.Intn(4) {
	case 0:
		rule.With(wire.TagOut, filter.AtLeast(r.Int63n(top))).With(wire.TagRest, filter.AtMost(r.Int63n(top)))
	case 1:
		to := tag()
		for t := wire.Tag(0); t < wire.NumTags; t++ {
			rule.WithRetag(t, to)
		}
		rule.With(to, iv())
	case 2:
		if r.Intn(2) == 0 {
			rule.WithRetag(wire.TagV2S2, wire.TagV2).WithRetag(wire.TagV2S12, wire.TagV2S1)
		}
		if r.Intn(2) == 0 {
			rule.WithRetag(wire.TagV2S1, wire.TagV2).WithRetag(wire.TagV2S12, wire.TagV2S2)
		}
		for _, t := range []wire.Tag{wire.TagV1, wire.TagV2S1, wire.TagV2, wire.TagV2S2, wire.TagV3} {
			rule.With(t, iv())
		}
	default:
		for t := wire.Tag(0); t < wire.NumTags; t++ {
			if r.Intn(3) == 0 {
				rule.WithRetag(t, tag())
			}
			if r.Intn(3) == 0 {
				rule.With(t, iv())
			}
		}
	}
	return rule
}

// checkNodes asserts that every node of sh is what the eager per-node
// replay ref makes it — value, tag and filter — and that the violator set
// holds exactly the replay's violators.
func checkNodes(t *testing.T, sh *Shard, ref []Node, what string) {
	t.Helper()
	var want []int32
	for i, nd := range ref {
		if got := sh.Node(nd.ID); got != nd {
			t.Fatalf("%s: node %d is %+v, the node handlers make it %+v", what, nd.ID, got, nd)
		}
		if nd.Violation() != filter.DirNone {
			want = append(want, sh.ids[i])
		}
	}
	fullScan := sh.FullScan
	sh.FullScan = false // the routed scan is the violator set itself
	got := sh.ScanList(wire.Violating())
	sh.FullScan = fullScan
	if !slices.Equal(got, want) {
		t.Fatalf("%s: violator set %v, the node handlers make it %v", what, got, want)
	}
}

// TestRuleMatchesNodeHandler holds the Shard's tag classes — a rule
// applied as a retag of class slots and a set of class filters, each
// node's filter derived from its slot — to the eager per-node handlers
// (Node.ApplyFilterRule, SetFilter, SetTag, Observe) applied to every row:
// after every op each node's value, tag and filter, and the violator set,
// equal the replay's. It runs with ApplyRule choosing its walks and with
// FullScan, which forces the pass over the rows, and with the generation
// counter started just below its maximum (the hook: the test sets it), so
// that the counter wraps and is rebased mid-run.
func TestRuleMatchesNodeHandler(t *testing.T) {
	const base, n, rounds, top = 70, 113, 400, 1 << 12
	for _, gen0 := range []uint32{0, math.MaxUint32 - 100} {
		for _, fullScan := range []bool{false, true} {
			t.Run(fmt.Sprintf("gen0=%d/fullscan=%v", gen0, fullScan), func(t *testing.T) {
				r := rngx.New(uint64(gen0) + 3)
				sh := NewShard(base, n)
				sh.gen, sh.FullScan = gen0, fullScan
				ref := make([]Node, n)
				for i := range ref {
					ref[i] = *New(base + i)
				}
				wrapped := false
				for round := range rounds {
					for i := range ref {
						if round == 0 || r.Intn(4) == 0 {
							v := r.Int63n(top)
							if r.Intn(16) == 0 {
								v = r.Int63n(eps.MaxValue)
							}
							sh.Install(base+i, v)
							ref[i].Observe(v)
						}
					}
					checkNodes(t, sh, ref, fmt.Sprintf("round %d, observations", round))
					for range r.Intn(4) {
						i := r.Intn(n)
						iv := filter.Make(r.Int63n(top), r.Int63n(2*top))
						if r.Intn(2) == 0 {
							sh.SetFilter(base+i, iv)
						} else {
							tg := wire.Tag(r.Intn(int(wire.NumTags)))
							sh.SetTagFilter(base+i, tg, iv)
							ref[i].SetTag(tg)
						}
						ref[i].SetFilter(iv)
					}
					checkNodes(t, sh, ref, fmt.Sprintf("round %d, unicasts", round))
					rule := randomRule(r, top)
					before := sh.gen
					sh.ApplyRule(rule)
					wrapped = wrapped || sh.gen < before
					for i := range ref {
						ref[i].ApplyFilterRule(rule)
					}
					checkNodes(t, sh, ref, fmt.Sprintf("round %d, rule %+v", round, *rule))
				}
				if wrapped != (gen0 != 0) {
					t.Fatalf("the generation counter wrapped: %v, want %v", wrapped, gen0 != 0)
				}
			})
		}
	}
}

// TestGenerationWrap pins the rebase of the generation counter, through
// the hook that starts it just below its maximum: the rule that wraps it
// leaves the class filter of a class it does not set in force, and a
// unicast after the wrap still outranks the class filter until the next
// rule that sets it.
func TestGenerationWrap(t *testing.T) {
	sh := NewShard(0, 3)
	ref := make([]Node, 3)
	for i, tg := range []wire.Tag{wire.TagV1, wire.TagV2, wire.TagV2} {
		v := int64(15 + 20*i)
		sh.Install(i, v)
		sh.SetTagFilter(i, tg, filter.AtLeast(100))
		ref[i] = *New(i)
		ref[i].Observe(v)
		ref[i].SetTag(tg)
		ref[i].SetFilter(filter.AtLeast(100))
	}
	sh.gen = math.MaxUint32 - 1 // the hook: the second rule wraps the counter
	setV1 := new(wire.FilterRule).With(wire.TagV1, filter.Make(10, 20))
	setV2 := new(wire.FilterRule).With(wire.TagV2, filter.Make(30, 40))
	apply := func(r *wire.FilterRule, what string) {
		t.Helper()
		sh.ApplyRule(r)
		for i := range ref {
			ref[i].ApplyFilterRule(r)
		}
		checkNodes(t, sh, ref, what)
	}
	apply(setV1, "the rule that takes the counter to its maximum")
	apply(setV2, "the rule that wraps it")
	if sh.gen != 1 {
		t.Fatalf("after the wrap the counter is %d, want 1", sh.gen)
	}
	sh.SetFilter(2, filter.Make(0, 9))
	ref[2].SetFilter(filter.Make(0, 9))
	apply(setV1, "a rule that does not set the class of the node a unicast assigned")
	apply(setV2, "a rule that sets it")
}

// churnShard returns a shard of n nodes in the tag mix of an embed-churn
// epoch and the epoch-opening rule, which retags every tag to rest and
// sets rest to [0, split − 1]: n − 9 nodes in rest and 9 nodes, the output
// and a probe's worth, in the small classes. n/den of the nodes (at least
// 32) sit above split, the rule's new violators. With oneBucket false the
// others sit below 2^20 and split is 2^20, so the value index's span above
// split holds only the raised nodes, as on embed-churn; with oneBucket set
// every value lies in [2^20, 2^21) and split is 1.5·2^20, so the span is
// the whole shard, as in BenchmarkEpochOpen. The rest class's members are
// shuffled by moves out and back, the order a long run leaves them in.
func churnShard(n, den int, oneBucket bool) (*Shard, *wire.FilterRule) {
	lo, split := int64(1e5), int64(1<<20)
	if oneBucket {
		lo, split = 1<<20, 3<<19
	}
	r := rngx.New(uint64(n + den))
	sh := NewShard(0, n)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = lo + r.Int63n(split-lo)
	}
	for _, i := range r.Perm(n)[:max(32, n/den)] {
		vals[i] = split + r.Int63n(1<<19)
	}
	sh.Advance(vals, nil)
	rule := new(wire.FilterRule)
	for t := wire.Tag(0); t < wire.NumTags; t++ {
		rule.WithRetag(t, wire.TagRest)
	}
	rule.With(wire.TagRest, filter.AtMost(split-1))
	sh.ApplyRule(rule)
	for range 2 * n {
		id := 9 + r.Intn(n-9)
		sh.SetTagFilter(id, wire.TagV3, filter.All)
		sh.SetTagFilter(id, wire.TagRest, filter.All)
	}
	retagSmall(sh)
	return sh, rule
}

// retagSmall unicasts nodes 0..8 into the small classes.
func retagSmall(sh *Shard) {
	for i := range 9 {
		sh.SetTagFilter(i, wire.Tag(i), filter.AtLeast(1<<20))
	}
}

// TestRuleCostsWhatItChanges: the epoch-opening rule on a churn-like shard
// costs the nodes it moves, the violators and the span above the rest
// filter — whatever n is — and leaves the nodes the eager handlers make.
func TestRuleCostsWhatItChanges(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		sh, rule := churnShard(n, n, false)
		ref := make([]Node, n)
		for i := range ref {
			ref[i] = sh.Node(i)
		}
		violators := sh.mir.NumViolating()
		// 8 moved, the violators rechecked, 32 span ids walked.
		if got, want := sh.RuleVisits(rule), 8+violators+32; got != want {
			t.Fatalf("n=%d: RuleVisits %d, want %d", n, got, want)
		}
		sh.ApplyRule(rule)
		for i := range ref {
			ref[i].ApplyFilterRule(rule)
		}
		checkNodes(t, sh, ref, fmt.Sprintf("n=%d", n))
	}
}

// BenchmarkRulePaths times ApplyRule's two ways of finding a set class's
// new violators — walking the cheaper of its members and the value-index
// spans outside its filter (walk), or one read-only pass over the rows
// (pass) — on the epoch-opening rule of churnShard at n = 2^10 and 2^16,
// with the rule's new violators a 64th to all of the shard, in embed-churn's
// value shape (the span above the rest filter holds the violators) and in
// one bucket (it holds the shard, so the walk is the rest class). Each
// iteration first widens rest to admit every value, which clears the
// violators, then applies the rule down the path named, and unicasts the
// nine small-class nodes back. Both paths must leave the same shard — the
// same violator set and filters — which it checks after timing them, so a
// -benchtime=1x run (make bench) checks it too. It places ruleWalkCutoff.
func BenchmarkRulePaths(b *testing.B) {
	widen := new(wire.FilterRule).With(wire.TagRest, filter.All)
	for _, n := range []int{1 << 10, 1 << 16} {
		for _, shape := range []string{"split", "bucket"} {
			for _, den := range []int{64, 16, 4, 2, 1} {
				var shards [2]*Shard
				for k, path := range []string{"walk", "pass"} {
					sh, rule := churnShard(n, den, shape == "bucket")
					shards[k] = sh
					b.Run(fmt.Sprintf("n=%d/%s/vio=1_%d/%s", n, shape, den, path), func(b *testing.B) {
						for range b.N {
							sh.ApplyRule(widen)
							p := sh.plan(rule)
							p.pass = path == "pass"
							sh.retag(rule, &p)
							sh.setClasses(rule, &p)
							retagSmall(sh)
						}
					})
				}
				walk, pass := shards[0], shards[1]
				if !slices.Equal(walk.ScanList(wire.Violating()), pass.ScanList(wire.Violating())) ||
					!slices.Equal(walk.AppendFilters(nil), pass.AppendFilters(nil)) {
					b.Fatalf("n=%d, %s, violators 1/%d: the walk and the pass leave different shards", n, shape, den)
				}
			}
		}
	}
}
