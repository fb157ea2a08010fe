package lockstep

import (
	"slices"
	"testing"

	"topkmon/internal/faults"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// checkMirrorMatchesNodes asserts the engine's violator set agrees with the
// actual per-node state: the mirrored violator flag of every node equals
// the ground truth !Filter.Contains(Value), and the set holds nothing else.
// The mirror keeps no value or filter of its own to compare (the node owns
// both), so this one bit per node is its whole no-desync obligation — a
// single divergence would make mirror-routed violation sweeps return
// different reports than a full scan. The shard's ScanList of the violation
// predicate is the mirror's set in id order, its ScanSize the set's count.
func checkMirrorMatchesNodes(t *testing.T, e *Engine) {
	t.Helper()
	set := e.sh.ScanList(wire.Violating())
	at, violators := 0, 0
	for id := range e.N() {
		nd := e.sh.Node(id)
		want := !nd.Filter.Contains(nd.Value)
		if want {
			violators++
		}
		got := at < len(set) && int(set[at]) == id
		if got {
			at++
		}
		if got != want {
			t.Fatalf("mirror Violating(%d) = %v, want %v (value %d, filter %+v)",
				nd.ID, got, want, nd.Value, nd.Filter)
		}
	}
	if got := e.sh.ScanSize(wire.Violating()); got != violators {
		t.Fatalf("mirror holds %d violators, the nodes have %d", got, violators)
	}
}

// FuzzFilterMirror drives random op sequences — observations, unicast and
// broadcast filter assignments, engine resets — through the fault injector
// with delayed filter assignments, message drops, and a crash window
// enabled, and checks after every single op that the mirror still equals
// the actual node state. The injector sits ABOVE the engine: a delayed op
// reaches the engine at the next Advance, a dropped op never reaches it,
// so the mirror (updated inside the engine, adjacent to the node mutation)
// must agree with the nodes no matter what the fault layer does.
func FuzzFilterMirror(f *testing.F) {
	// Delayed-assignment schedules in the PR 6 idiom: filter ops issued
	// back-to-back with Advances so held ops land one step late, plus a
	// reset mid-run and an empty-filter assignment.
	f.Add(uint8(2), []byte{1, 10, 3, 0, 40, 1, 20, 5, 0, 41, 2, 7, 9, 0, 42})
	f.Add(uint8(5), []byte{3, 8, 4, 0, 1, 3, 60, 0, 2, 4, 9, 1, 3, 3, 0, 5})
	f.Add(uint8(0), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 9})
	f.Add(uint8(7), []byte{1, 200, 200, 0, 0, 1, 200, 0, 0, 0, 3, 255, 0, 0})

	f.Fuzz(func(t *testing.T, planByte uint8, script []byte) {
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
		e := New(n, seed)
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
			case 3: // broadcast rule: narrow for untagged, all for the rest
				lo := int64(next()) % 64
				rule := wire.NewFilterRule().
					With(wire.TagNone, filter.Make(lo, lo+int64(next())%16)).
					With(wire.TagRest, filter.All)
				w.BroadcastRule(rule)
			case 4: // full reset: mirror must rewind with the nodes
				w.Reset(uint64(next()))
			default: // exercise the mirror-routed read paths
				w.Sweep(wire.Violating())
				w.DetectViolation()
			}
			checkMirrorMatchesNodes(t, e)
		}
	})
}

// checkActiveListMatchesNodes asserts the engine's max-find active list is
// exactly the ids of the nodes whose MFActive flag is set, in ascending
// order — and that both flags of every node are what the delivered
// broadcasts make them (wantActive, wantExcluded: the test's own replay of
// the node handlers). It also resolves AboveActive(x) at x, the threshold
// of the last max-find broadcast sent, where the shard's floor watermark
// may let it keep the active list untested: the kept ids must be exactly
// the active nodes above x.
func checkActiveListMatchesNodes(t *testing.T, e *Engine, wantActive, wantExcluded []bool, x int64) {
	t.Helper()
	list := e.sh.ScanList(wire.AboveActive(-1))
	var above []int32
	at := 0
	for id := range e.N() {
		nd := e.sh.Node(id)
		if nd.MFActive != wantActive[nd.ID] || nd.MFExcluded != wantExcluded[nd.ID] {
			t.Fatalf("node %d: active=%v excluded=%v, the delivered broadcasts make it active=%v excluded=%v",
				nd.ID, nd.MFActive, nd.MFExcluded, wantActive[nd.ID], wantExcluded[nd.ID])
		}
		if !nd.MFActive {
			continue
		}
		if at >= len(list) || int(list[at]) != id {
			t.Fatalf("active node %d missing from the active list at position %d (list holds %d)", id, at, len(list))
		}
		at++
		if nd.Value > x {
			above = append(above, int32(id))
		}
	}
	if at != len(list) {
		t.Fatalf("active list holds %d nodes, %d have the flag", len(list), at)
	}
	if got := e.sh.Matchers(wire.AboveActive(x)); !slices.Equal(got, above) {
		t.Fatalf("AboveActive(%d) keeps %v, the active nodes above it are %v", x, got, above)
	}
}

// FuzzActiveList drives random sequences of the three max-find broadcasts,
// observations, engine resets and max-find sweeps through the fault
// injector with whole-broadcast drops enabled, and checks after every
// single op that the engine's active list equals a full scan of the
// MFActive flags. A dropped MaxFindInit/Raise/Exclude never reaches the
// engine, so the flags go stale — and the list must be exactly as stale as
// they are; an observation moves values under the list without touching
// it. The test replays the node handlers for the broadcasts that were
// delivered (the DroppedMsgs counter says which), so a handler the engine
// skipped, or applied to the wrong nodes, fails too.
func FuzzActiveList(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 1, 2, 3, 40, 3, 5, 0, 7, 1, 9, 0, 2, 4, 80})
	f.Add(uint8(1), []byte{1, 10, 1, 2, 0, 200, 3, 3, 2, 1, 100, 4, 9, 1, 0, 0, 5, 5})
	f.Add(uint8(2), []byte{0, 9, 1, 255, 0, 3, 16, 3, 0, 3, 1, 1, 30, 1, 2, 2, 60, 5})
	f.Add(uint8(1), []byte{1, 0, 0, 3, 4, 3, 4, 1, 0, 1, 4, 7, 1, 0, 0, 2, 4, 0})

	f.Fuzz(func(t *testing.T, planByte uint8, script []byte) {
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
		var x int64 = -1 // threshold of the last max-find broadcast sent
		for steps := 0; len(script) > 0 && steps < 4096; steps++ {
			switch next() % 6 {
			case 0: // observations: values move, no flag does
				b := next()
				for i := range vals {
					vals[i] = int64(b)%64 + int64(i*7%64)
				}
				w.Advance(vals)
			case 1: // init, with and without clearing the exclusions
				floor, reset := int64(next())%128-1, next()%2 == 0
				x = floor
				if delivered(func() { w.MaxFindInit(floor, reset) }) {
					for i := range active {
						excluded[i] = excluded[i] && !reset
						active[i] = !excluded[i] && vals[i] > floor
					}
				}
			case 2: // raise: the holder and everyone at or below best drop out
				holder, best := int(next())%n, int64(next())%128
				x = best
				if delivered(func() { w.MaxFindRaise(holder, best) }) {
					for i := range active {
						active[i] = active[i] && i != holder && vals[i] > best
					}
				}
			case 3: // exclude one node, active or not
				id := int(next()) % n
				if delivered(func() { w.MaxFindExclude(id) }) {
					active[id], excluded[id] = false, true
				}
			case 4: // full reset: the list must empty with the flags
				w.Reset(uint64(next()))
				clear(vals)
				clear(active)
				clear(excluded)
			default: // the read paths served from the list
				x := int64(next())%128 - 1
				w.Sweep(wire.AboveActive(x))
				w.Collect(wire.AboveActive(x))
			}
			checkActiveListMatchesNodes(t, e, active, excluded, x)
		}
	})
}
