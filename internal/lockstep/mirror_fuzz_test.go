package lockstep

import (
	"math"
	"slices"
	"testing"

	"topkmon/internal/faults"
	"topkmon/internal/filter"
	"topkmon/internal/nodecore"
	"topkmon/internal/wire"
)

// eagerEngine is the engine under test with an eager per-node replay of
// the node-state calls that reach it: every node's value, tag and filter
// as the model's nodes would hold them, a broadcast rule applied to every
// row by rule.Apply (nodecore.Node.ApplyFilterRule), as
// faults.Cluster.believeRule does. The fault injector wraps it, so a
// dropped op reaches neither, a delayed op reaches both a step late, and a
// duplicated one reaches both twice.
type eagerEngine struct {
	*Engine
	ref []nodecore.Node
	// unicast marks the nodes whose filter a unicast assigned after the
	// last rule that set their tag; shapes counts the rules delivered.
	unicast []bool
	shapes  ruleShapes
}

// ruleShapes counts delivered rules by what they do to the tag classes.
type ruleShapes struct {
	moved   int // some node's tag changes
	partial int // some node's tag changes and a held tag keeps its nodes
	smaller int // a tag's class receives a larger class than its own
	empty   int // a tag the rule sets is held by no node after the retag
	own     int // a node's unicast filter outlives the rule
}

func newEagerEngine(n int, seed uint64) *eagerEngine {
	e := &eagerEngine{Engine: New(n, seed), ref: make([]nodecore.Node, n), unicast: make([]bool, n)}
	for i := range e.ref {
		e.ref[i] = *nodecore.New(i)
	}
	return e
}

// count adds rule's shapes, read from the replay's nodes before it
// applies, to e.shapes.
func (e *eagerEngine) count(rule *wire.FilterRule) {
	var before, after, into [wire.NumTags]int
	own := false
	for i, nd := range e.ref {
		before[nd.Tag]++
		to, _ := rule.Apply(nd.Tag, nd.Filter)
		after[to]++
		own = own || e.unicast[i] && !rule.Set[to]
	}
	moved, kept := false, false
	for t, n := range before {
		to := wire.Tag(t)
		if rule.RetagSet[t] {
			to = rule.Retag[t]
		}
		switch {
		case n == 0:
		case to == wire.Tag(t):
			kept = true
		default:
			moved = true
			into[to] = max(into[to], n)
		}
	}
	smaller, empty := false, false
	for t := range before {
		smaller = smaller || before[t] > 0 && into[t] > before[t]
		empty = empty || rule.Set[t] && after[t] == 0
	}
	e.shapes.moved += b2i(moved)
	e.shapes.partial += b2i(moved && kept)
	e.shapes.smaller += b2i(smaller)
	e.shapes.empty += b2i(empty)
	e.shapes.own += b2i(own)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (e *eagerEngine) Advance(values []int64) {
	e.Engine.Advance(values)
	for i := range e.ref {
		e.ref[i].Observe(values[i])
	}
}

func (e *eagerEngine) AdvanceDirty(values []int64, dirty []int) {
	e.Engine.AdvanceDirty(values, dirty)
	for _, id := range dirty {
		e.ref[id].Observe(values[id])
	}
}

func (e *eagerEngine) BroadcastRule(rule *wire.FilterRule) {
	e.count(rule)
	e.Engine.BroadcastRule(rule)
	for i := range e.ref {
		e.ref[i].ApplyFilterRule(rule)
		e.unicast[i] = e.unicast[i] && !rule.Set[e.ref[i].Tag]
	}
}

func (e *eagerEngine) SetFilter(id int, iv filter.Interval) {
	e.Engine.SetFilter(id, iv)
	e.ref[id].SetFilter(iv)
	e.unicast[id] = true
}

func (e *eagerEngine) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	e.Engine.SetTagFilter(id, t, iv)
	e.ref[id].SetTag(t)
	e.ref[id].SetFilter(iv)
	e.unicast[id] = true
}

func (e *eagerEngine) Reset(seed uint64) {
	e.Engine.Reset(seed)
	for i := range e.ref {
		e.ref[i].Reset()
	}
	clear(e.unicast)
}

// checkMirrorMatchesNodes asserts the engine's node state and violator set
// against the eager replay: every node's value, tag and filter as the
// shard derives them from its tag classes equal the replay's, the
// mirrored violator flag of every node equals !Filter.Contains(Value) of
// the replay's node, and the set holds nothing else. A single divergence
// would make mirror-routed violation sweeps return different reports than
// a full scan, or a node answer with another filter than the model's. The
// shard's ScanList of the violation predicate is the violator set in id
// order, its ResolveSize the set's count.
func checkMirrorMatchesNodes(t *testing.T, e *eagerEngine) {
	t.Helper()
	set := e.sh.ScanList(wire.Violating())
	at, violators := 0, 0
	for id, want := range e.ref {
		if got := e.sh.Node(id); got != want {
			t.Fatalf("node %d is %+v, the eager replay makes it %+v", id, got, want)
		}
		violating := !want.Filter.Contains(want.Value)
		if violating {
			violators++
		}
		got := at < len(set) && int(set[at]) == id
		if got {
			at++
		}
		if got != violating {
			t.Fatalf("mirror Violating(%d) = %v, want %v (value %d, filter %+v)",
				id, got, violating, want.Value, want.Filter)
		}
	}
	if got := e.sh.ResolveSize(wire.Violating()); got != violators {
		t.Fatalf("mirror holds %d violators, the nodes have %d", got, violators)
	}
}

// FuzzFilterMirror drives random op sequences — observations, unicast and
// broadcast filter assignments, engine resets — through the fault injector
// with delayed filter assignments, message drops, and a crash window
// enabled, and checks after every single op that the node state and the
// mirror equal an eager per-node replay of the ops that reached the engine
// (eagerEngine). The injector sits ABOVE the engine: a delayed op reaches
// the engine at the next Advance, a dropped op never reaches it, so the
// shard's tag classes and its mirror (both updated inside the engine) must
// agree with the replay no matter what the fault layer does. The rules
// cover the shapes the protocols broadcast (fuzzRule): a two-tag filter
// update, a retag of every tag to one, DENSE's round rule with its partial
// S-set disbands, and one retag with one set, which may set a tag no node
// holds; TestFilterMirrorSeedsReachRuleShapes holds the seeds to the
// shapes the tag classes treat apart.
func FuzzFilterMirror(f *testing.F) {
	for _, sd := range filterMirrorSeeds {
		f.Add(sd.plan, sd.script)
	}
	f.Fuzz(func(t *testing.T, planByte uint8, script []byte) { filterMirrorScript(t, planByte, script) })
}

// filterMirrorSeeds is FuzzFilterMirror's seed corpus.
var filterMirrorSeeds = []struct {
	plan   uint8
	script []byte
}{
	// Delayed-assignment schedules in the PR 6 idiom: filter ops issued
	// back-to-back with Advances so held ops land one step late, plus a
	// reset mid-run and an empty-filter assignment.
	{2, []byte{1, 10, 3, 0, 40, 1, 20, 5, 0, 41, 2, 7, 9, 0, 42}},
	{5, []byte{3, 8, 4, 0, 1, 3, 60, 0, 2, 4, 9, 1, 3, 3, 0, 5}},
	{0, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 9}},
	{7, []byte{1, 200, 200, 0, 0, 1, 200, 0, 0, 0, 3, 255, 0, 0}},
	// DENSE's partial S-set disbands: nodes in V1, V2 and the three S
	// classes, then round rules disbanding S2, S1 and both.
	{0, []byte{0, 10, 2, 1, 3, 5, 2, 2, 7, 6, 2, 3, 8, 7, 2, 4, 9, 4, 2, 5, 11, 3,
		3, 148, 1, 5, 3, 150, 2, 5, 2, 6, 12, 7, 3, 152, 3, 5}},
	// A retag of every tag to V3 while V3 is the smaller class: the larger
	// class keeps its slot and is relabelled.
	{0, []byte{0, 10, 3, 94, 2, 2, 1, 3, 8, 2, 2, 6, 8, 3, 104, 8, 5, 0, 50, 3, 69, 2, 5}},
	// A unicast between two rules: the node keeps its own filter through a
	// rule that does not set its tag and takes the class filter of the next
	// one that does.
	{0, []byte{0, 20, 3, 30, 5, 1, 3, 40, 2, 3, 202, 3, 4, 4, 3, 0, 21, 3, 33, 2, 5}},
	// A rule that sets a tag no node holds, a node that joins it by a
	// unicast, and the next rule that sets it.
	{0, []byte{0, 5, 3, 199, 7, 3, 0, 0, 2, 4, 12, 7, 3, 199, 7, 3, 0, 0, 5}},
}

// filterMirrorScript runs one FuzzFilterMirror script and returns the
// shapes of the rules that reached the engine.
func filterMirrorScript(t *testing.T, planByte uint8, script []byte) ruleShapes {
	const n, seed = 17, 1234
	delays := [...]float64{0, 0.5, 1}
	drops := [...]float64{0, 0.4}
	plan := &faults.Plan{
		Delay: delays[planByte%3],
		Drop:  drops[(planByte/3)%2],
	}
	if planByte&0x40 != 0 {
		plan.Crashes = []faults.Crash{{Node: 2, From: 2, Until: 5}}
	}
	e := newEagerEngine(n, seed)
	w := faults.Wrap(e, plan, seed)

	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	vals := make([]int64, n)
	for steps := 0; len(script) > 0 && steps < 4096; steps++ {
		switch next() % 6 {
		case 0: // new observations (small domain → frequent flips)
			b := next()
			for i := range vals {
				vals[i] = int64(b)%64 + int64(i*7%64)
			}
			w.Advance(vals)
		case 1: // unicast filter (possibly delayed or dropped)
			id, lo, width := int(next())%n, int64(next())%64, int64(next())%8
			w.SetFilter(id, filter.Make(lo, lo+width))
		case 2: // tag+filter unicast, occasionally the empty interval
			id, lo := int(next())%n, int64(next())%64
			iv := filter.Make(lo, lo+4)
			if lo%5 == 0 {
				iv = filter.Make(9, 3) // empty: always violating
			}
			w.SetTagFilter(id, wire.Tag(int(next())%int(wire.NumTags)), iv)
		case 3: // broadcast rule
			w.BroadcastRule(fuzzRule(next))
		case 4: // full reset: mirror must rewind with the nodes
			w.Reset(uint64(next()))
		default: // exercise the mirror-routed read paths
			w.Sweep(wire.Violating())
			w.DetectViolation()
		}
		checkMirrorMatchesNodes(t, e)
	}
	return e.shapes
}

// TestFilterMirrorSeedsReachRuleShapes: FuzzFilterMirror's seeds deliver
// rules of every shape the tag classes treat apart — one that moves nodes,
// a partial retag that keeps a held tag's nodes in place, one whose target
// class is smaller than a class retagged into it, one that sets a tag no
// node holds, and one that a unicast filter outlives.
func TestFilterMirrorSeedsReachRuleShapes(t *testing.T) {
	var sum ruleShapes
	for _, sd := range filterMirrorSeeds {
		got := filterMirrorScript(t, sd.plan, sd.script)
		sum.moved += got.moved
		sum.partial += got.partial
		sum.smaller += got.smaller
		sum.empty += got.empty
		sum.own += got.own
	}
	if sum.moved == 0 || sum.partial == 0 || sum.smaller == 0 || sum.empty == 0 || sum.own == 0 {
		t.Fatalf("the seeds deliver rules of shapes %+v; want every shape", sum)
	}
	t.Logf("rule shapes delivered: %+v", sum)
}

// fuzzRule decodes one broadcast rule of FuzzFilterMirror. Its first byte
// b gives the low end lo = b mod 64 of the rule's intervals and, in b/64,
// its shape:
//
//   - 0: untagged nodes narrow to [lo, lo + next mod 16], the rest admit
//     everything;
//   - 1: every tag is retagged to next mod NumTags, which is set to
//     [0, lo];
//   - 2: DENSE's round rule, which sets V1, V2∩S1, V2, V2∩S2 and V3 around
//     lo and, by the bits of next, disbands S2 (V2∩S2 → V2, V2∩S1∩S2 →
//     V2∩S1), S1 (V2∩S1 → V2, V2∩S1∩S2 → V2∩S2) or both;
//   - 3: tag next mod NumTags is set to [lo, lo + next mod 16], and tag
//     next mod NumTags is retagged to next mod NumTags.
func fuzzRule(next func() byte) *wire.FilterRule {
	b := next()
	lo := int64(b) % 64
	rule := new(wire.FilterRule)
	switch b / 64 {
	case 0:
		rule.With(wire.TagNone, filter.Make(lo, lo+int64(next())%16)).
			With(wire.TagRest, filter.All)
	case 1:
		to := wire.Tag(next() % byte(wire.NumTags))
		for t := wire.Tag(0); t < wire.NumTags; t++ {
			rule.WithRetag(t, to)
		}
		rule.With(to, filter.AtMost(lo))
	case 2:
		disband := next()
		if disband&1 != 0 {
			rule.WithRetag(wire.TagV2S2, wire.TagV2).WithRetag(wire.TagV2S12, wire.TagV2S1)
		}
		if disband&2 != 0 {
			rule.WithRetag(wire.TagV2S1, wire.TagV2).WithRetag(wire.TagV2S12, wire.TagV2S2)
		}
		rule.With(wire.TagV1, filter.AtLeast(lo)).
			With(wire.TagV2S1, filter.Make(lo, lo+8)).
			With(wire.TagV2, filter.Make(lo, lo+16)).
			With(wire.TagV2S2, filter.Make(lo+4, lo+16)).
			With(wire.TagV3, filter.AtMost(lo+16))
	default:
		set := wire.Tag(next() % byte(wire.NumTags))
		rule.With(set, filter.Make(lo, lo+int64(next())%16))
		from := wire.Tag(next() % byte(wire.NumTags))
		rule.WithRetag(from, wire.Tag(next()%byte(wire.NumTags)))
	}
	return rule
}

// checkActiveListMatchesNodes asserts that the shard's max-find flags
// (Shard.MaxFind) are what the delivered broadcasts make them (wantActive,
// wantExcluded: the test's own replay of the per-node handlers). With
// list set it then also reads the active list, which applies a pending
// raise: the list must be exactly the active ids in ascending order, and
// a resolve of the max-find predicate at (x, xid), the threshold of the
// last max-find broadcast sent — where the shard's floor watermark may let
// it keep the active list untested, and under FullScan a walk beside the
// list over every id — must keep exactly the active nodes above it in the
// max-find order.
func checkActiveListMatchesNodes(t *testing.T, e *Engine, wantActive, wantExcluded []bool, x, xid int64, list bool) {
	t.Helper()
	var want, above []int32
	for id := range e.N() {
		active, excluded := e.sh.MaxFind(id)
		if active != wantActive[id] || excluded != wantExcluded[id] {
			t.Fatalf("node %d: active=%v excluded=%v, the delivered broadcasts make it active=%v excluded=%v",
				id, active, excluded, wantActive[id], wantExcluded[id])
		}
		if !active {
			continue
		}
		want = append(want, int32(id))
		if wire.Above(e.sh.Node(id).Value, int64(id), x, xid) {
			above = append(above, int32(id))
		}
	}
	if !list {
		return
	}
	fullScan := e.sh.FullScan
	e.sh.FullScan = false // the routed scan is the active list itself
	got := e.sh.ScanList(wire.AboveActive(-1))
	e.sh.FullScan = fullScan
	if !slices.Equal(got, want) {
		t.Fatalf("active list %v, the active nodes are %v", got, want)
	}
	p := wire.Pred{Kind: wire.PredAboveActive, X: x, Y: xid}
	if got := e.sh.Keep(p, e.sh.ScanList(p)); !slices.Equal(got, above) {
		t.Fatalf("%+v keeps %v, the active nodes above it are %v", p, got, above)
	}
}

// FuzzActiveList drives random sequences of the three max-find broadcasts,
// observations, engine resets, max-find collects and sweeps, and FullScan
// toggles through the fault injector with whole-broadcast drops enabled,
// and checks after every single op that the shard's max-find flags equal
// the test's replay of the per-node handlers. A dropped
// MaxFindInit/Raise/Exclude never reaches the engine, so the flags go
// stale — and the shard must be exactly as stale; an observation moves
// values under the active list without touching it. The test replays the
// handlers for the broadcasts that were delivered (the DroppedMsgs counter
// says which), so a handler the engine skipped, or applied to the wrong
// nodes, fails too, and so does a Collect of the max-find predicate that
// reports other nodes than the replay's. A delivered raise is only
// recorded by the shard; the check after it reads the flags but not the
// list, so the raise stays pending into the next op, and whatever that op
// is — an observation, an exclude, a dropped Init, a Collect — must see it
// applied against the values it was announced over. An Init at a floor
// builds its list either from the value index's span or by a pass over
// the rows; TestActiveListSeedsReachBothInits holds the seeds to both.
func FuzzActiveList(f *testing.F) {
	for _, sd := range activeListSeeds {
		f.Add(sd.plan, sd.script)
	}
	f.Fuzz(func(t *testing.T, planByte uint8, script []byte) { activeListScript(t, planByte, script) })
}

// activeListSeeds is FuzzActiveList's seed corpus.
var activeListSeeds = []struct {
	plan   uint8
	script []byte
}{
	{0, []byte{1, 0, 1, 2, 3, 40, 3, 5, 0, 7, 1, 9, 0, 2, 4, 80}},
	{1, []byte{1, 10, 1, 2, 0, 200, 3, 3, 2, 1, 100, 4, 9, 1, 0, 0, 5, 5}},
	{2, []byte{0, 9, 1, 255, 0, 3, 16, 3, 0, 3, 1, 1, 30, 1, 2, 2, 60, 5}},
	{1, []byte{1, 0, 0, 3, 4, 3, 4, 1, 0, 1, 4, 7, 1, 0, 0, 2, 4, 0}},
	// A raise left pending across an observation, an exclude, a Collect
	// (with FullScan on), a delivered Init and a dropped one.
	{0, []byte{0, 5, 1, 0, 0, 5, 0, 2, 3, 20, 0, 40, 5, 0}},
	{0, []byte{0, 5, 1, 0, 0, 5, 0, 2, 3, 20, 3, 7, 5, 0}},
	{0, []byte{0, 5, 1, 0, 0, 6, 2, 9, 30, 5, 20, 6, 5, 0}},
	{0, []byte{0, 5, 1, 0, 0, 2, 3, 20, 1, 0, 1, 5, 0}},
	{2, []byte{0, 5, 1, 0, 0, 1, 0, 0, 2, 3, 20, 2, 3, 20, 1, 10, 1, 5, 0}},
	// Inits the value index routes: at observation 1 only node 9 holds a
	// value (64) in the top bucket, so a floor of 63 spans it alone, and a
	// floor of 30 takes the pass over the rows. A routed Init after node 9
	// was excluded, and one left pending under a raise of a tie.
	{0, []byte{0, 1, 1, 64, 0, 5, 64, 3, 2, 9, 64, 5, 63, 9, 1, 31, 1, 5, 40, 2}},
	{0, []byte{0, 1, 3, 9, 1, 64, 1, 5, 0, 0, 1, 64, 0, 5, 63, 0}},
	{0, []byte{0, 1, 1, 64, 0, 2, 8, 64, 1, 64, 1, 2, 9, 63, 5, 63, 8}},
}

// activeListScript runs one FuzzActiveList script and returns how many
// delivered Inits at a floor were routed through the value index and how
// many took the pass over the rows.
func activeListScript(t *testing.T, planByte uint8, script []byte) (routed, passes int) {
	const n, seed = 17, 4321
	drops := [...]float64{0, 0.3, 0.7}
	e := New(n, seed)
	w := faults.Wrap(e, &faults.Plan{
		Drop:  drops[planByte%3],
		Kinds: faults.MaskOf(wire.KindMaxFindInit, wire.KindMaxFindRaise, wire.KindMaxFindExclude),
	}, seed)

	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	// delivered runs one broadcast and reports whether it arrived.
	delivered := func(broadcast func()) bool {
		before := w.Counters().DroppedMsgs()
		broadcast()
		return w.Counters().DroppedMsgs() == before
	}
	vals := make([]int64, n)
	active, excluded := make([]bool, n), make([]bool, n)
	// (x, xid) is the threshold of the last max-find broadcast sent.
	var x, xid int64 = -1, math.MaxInt64
	for steps := 0; len(script) > 0 && steps < 4096; steps++ {
		list := true
		switch next() % 7 {
		case 0: // observations: values move, no flag does
			b := next()
			for i := range vals {
				vals[i] = int64(b)%64 + int64(i*7%64)
			}
			w.Advance(vals)
		case 1: // init, with and without clearing the exclusions
			floor, reset := int64(next())%128-1, next()%2 == 0
			x, xid = floor, math.MaxInt64
			_, viaIndex := e.sh.InitVisits(floor)
			if delivered(func() { w.MaxFindInit(floor, reset) }) {
				for i := range active {
					excluded[i] = excluded[i] && !reset
					active[i] = !excluded[i] && vals[i] > floor
				}
				switch {
				case floor < 0:
				case viaIndex:
					routed++
				default:
					passes++
				}
			}
		case 2: // raise: the holder and everyone not above (best, holder) drop out
			holder, best := int(next())%n, int64(next())%128
			x, xid = best, int64(holder)
			if delivered(func() { w.MaxFindRaise(holder, best) }) {
				for i := range active {
					active[i] = active[i] && i != holder && wire.Above(vals[i], int64(i), best, int64(holder))
				}
			}
			list = false // leave the raise pending into the next op
		case 3: // exclude one node, active or not
			id := int(next()) % n
			if delivered(func() { w.MaxFindExclude(id) }) {
				active[id], excluded[id] = false, true
			}
		case 4: // full reset: the flags must clear, FullScan with them
			w.Reset(uint64(next()))
			clear(vals)
			clear(active)
			clear(excluded)
		case 5: // the read paths served from the list
			p := wire.Pred{Kind: wire.PredAboveActive, X: int64(next())%128 - 1, Y: int64(next()) % n}
			var got, want []int
			for _, rep := range w.Collect(p) {
				got = append(got, rep.ID)
			}
			for i := range active {
				if active[i] && wire.Above(vals[i], int64(i), p.X, p.Y) {
					want = append(want, i)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Collect(%+v) reports %v, the active nodes above it are %v", p, got, want)
			}
			w.Sweep(p)
		default: // the full-scan ablation: every read walks every id
			e.sh.FullScan = !e.sh.FullScan
		}
		checkActiveListMatchesNodes(t, e, active, excluded, x, xid, list)
	}
	return routed, passes
}

// TestActiveListSeedsReachBothInits: FuzzActiveList's seeds deliver Inits
// at a floor down both of MaxFindInit's paths, the value index's span and
// the pass over the rows.
func TestActiveListSeedsReachBothInits(t *testing.T) {
	var routed, passes int
	for _, sd := range activeListSeeds {
		r, p := activeListScript(t, sd.plan, sd.script)
		routed, passes = routed+r, passes+p
	}
	if routed == 0 || passes == 0 {
		t.Fatalf("the seeds deliver %d routed Inits and %d passes over the rows; want both", routed, passes)
	}
	t.Logf("%d routed Inits, %d passes over the rows", routed, passes)
}
