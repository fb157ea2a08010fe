package lockstep

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/live"
	"topkmon/internal/metrics"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// adversarial value distributions for the index: the shapes that stress the
// bucket coarsening hardest.
func distributions(n int, r *rngx.Source) map[string]func() []int64 {
	return map[string]func() []int64{
		"random": func() []int64 {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = r.Int63n(1 << 30)
			}
			return vals
		},
		"all-equal": func() []int64 { // every node in ONE bucket
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = 4711
			}
			return vals
		},
		"one-hot-bucket": func() []int64 { // dense cluster + sparse rest
			vals := make([]int64, n)
			for i := range vals {
				if i%8 == 0 {
					vals[i] = r.Int63n(eps.MaxValue)
				} else {
					vals[i] = (1 << 20) + r.Int63n(1<<19) // all in bucket 21
				}
			}
			return vals
		},
		"bucket-boundaries": func() []int64 { // 2^k-1 / 2^k straddles
			vals := make([]int64, n)
			for i := range vals {
				k := uint(1 + r.Intn(38))
				vals[i] = int64(1)<<k - r.Int63n(2)
			}
			return vals
		},
		"all-zero": func() []int64 { return make([]int64, n) },
	}
}

// randomPred draws predicates covering every routing path: interval
// predicates (value-bucket-indexed), empty and out-of-range intervals,
// max-find predicates (necessary-only bounds), the mirror-routed violation
// predicate, and the tag full-scan fallback.
func randomPred(r *rngx.Source) wire.Pred {
	switch r.Intn(6) {
	case 0: // in-range, possibly matching
		lo := r.Int63n(1 << 30)
		return wire.InRange(lo, lo+r.Int63n(1<<28))
	case 1: // empty interval
		return wire.InRange(9, 3)
	case 2: // above all values: no matches through the index
		return wire.InRange(eps.MaxValue-5, eps.MaxValue)
	case 3:
		return wire.AboveActive(r.Int63n(1 << 30))
	case 4:
		return wire.Violating()
	default:
		return wire.HasTag(wire.Tag(r.Intn(int(wire.NumTags))))
	}
}

// equivOp is one deterministic scripted operation; the same script replays
// against every engine under comparison, so reports, counters, and coin
// flips must align byte for byte.
type equivOp struct {
	kind    uint8 // see the op constants below
	vals    []int64
	id      int
	tag     wire.Tag
	iv      filter.Interval
	rule    wire.FilterRule
	floor   int64
	reset   bool
	pred    wire.Pred
	endStep bool
}

const (
	opAdvance = iota
	opSetTagFilter
	opBroadcastRule
	opMaxFindInit
	opCollect
	opSweep
	opDirectSweep // lockstep-only E11 ablation; scripts for live omit it
	opDetect
)

// equivScript generates the adversarial op sequence for one distribution:
// per round new observations, periodic filter churn that manufactures and
// clears real violators (unicast narrow filters AND broadcast rules with
// retagging — the exact mutation points the filter mirror must track),
// max-find state churn, then predicate-routed Collect/Sweep plus a
// violation sweep and a DetectViolation.
func equivScript(n, rounds int, dist func() []int64, r *rngx.Source, withDirect bool) []equivOp {
	var ops []equivOp
	for round := 0; round < rounds; round++ {
		ops = append(ops, equivOp{kind: opAdvance, vals: dist()})

		if round%5 == 1 {
			ops = append(ops, equivOp{
				kind: opSetTagFilter,
				id:   r.Intn(n),
				tag:  wire.Tag(r.Intn(int(wire.NumTags))),
				iv:   filter.Make(r.Int63n(1<<20), 1<<21),
			})
		}
		if round%4 == 3 {
			// Broadcast churn: a narrow filter for the untagged majority
			// (mass violator creation on most distributions), an
			// all-admitting one for TagRest, and a retag so filter
			// derivation exercises the rule path end to end.
			lo := r.Int63n(1 << 22)
			rule := wire.NewFilterRule().
				With(wire.TagNone, filter.Make(lo, lo+r.Int63n(1<<22))).
				With(wire.TagRest, filter.All).
				WithRetag(wire.TagV3, wire.TagRest)
			ops = append(ops, equivOp{kind: opBroadcastRule, rule: *rule})
		}
		if round%9 == 7 {
			// Clear the board so later rounds re-create violators afresh.
			rule := wire.NewFilterRule().With(wire.TagNone, filter.All)
			ops = append(ops, equivOp{kind: opBroadcastRule, rule: *rule})
		}
		if round%7 == 2 {
			ops = append(ops, equivOp{
				kind: opMaxFindInit, floor: r.Int63n(1 << 29), reset: round%14 == 2,
			})
		}

		p := randomPred(r)
		ops = append(ops, equivOp{kind: opCollect, pred: p})
		ops = append(ops, equivOp{kind: opSweep, pred: p})
		ops = append(ops, equivOp{kind: opSweep, pred: wire.Violating()})
		if withDirect && round%3 == 0 {
			ops = append(ops, equivOp{kind: opDirectSweep, pred: p})
		}
		ops = append(ops, equivOp{kind: opDetect, endStep: true})
	}
	return ops
}

// equivTrail is everything observable about one scripted run: every op's
// reports, every DetectViolation pick, the per-round counter deltas, and
// the final counter snapshot.
type equivTrail struct {
	reports [][]wire.Report
	picks   []wire.Report
	found   []bool
	deltas  []metrics.Snapshot
	final   metrics.Snapshot
}

// runEquivScript replays ops against eng and records the trail.
func runEquivScript(eng cluster.Engine, ops []equivOp) equivTrail {
	var trail equivTrail
	prev := eng.Counters().Snapshot()
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opAdvance:
			eng.Advance(op.vals)
		case opSetTagFilter:
			eng.SetTagFilter(op.id, op.tag, op.iv)
		case opBroadcastRule:
			rule := op.rule
			eng.BroadcastRule(&rule)
		case opMaxFindInit:
			eng.MaxFindInit(op.floor, op.reset)
		case opCollect:
			trail.reports = append(trail.reports, append([]wire.Report(nil), eng.Collect(op.pred)...))
		case opSweep:
			trail.reports = append(trail.reports, append([]wire.Report(nil), eng.Sweep(op.pred)...))
		case opDirectSweep:
			ls := eng.(*Engine)
			ls.DirectReports = true
			trail.reports = append(trail.reports, append([]wire.Report(nil), ls.Sweep(op.pred)...))
			ls.DirectReports = false
		case opDetect:
			rep, ok := eng.DetectViolation()
			trail.picks = append(trail.picks, rep)
			trail.found = append(trail.found, ok)
		}
		if op.endStep {
			eng.EndStep()
			cur := eng.Counters().Snapshot()
			trail.deltas = append(trail.deltas, cur.Sub(prev))
			prev = cur
		}
	}
	trail.final = eng.Counters().Snapshot()
	return trail
}

// diffTrails fails the test at the first divergence between two trails.
func diffTrails(t *testing.T, name string, want, got equivTrail) {
	t.Helper()
	for i := range want.reports {
		if !reflect.DeepEqual(want.reports[i], got.reports[i]) {
			t.Fatalf("%s: reports[%d] diverge:\nfull scan %v\nrouted    %v",
				name, i, want.reports[i], got.reports[i])
		}
	}
	if !reflect.DeepEqual(want.picks, got.picks) || !reflect.DeepEqual(want.found, got.found) {
		t.Fatalf("%s: DetectViolation picks diverge", name)
	}
	for i := range want.deltas {
		if !reflect.DeepEqual(want.deltas[i], got.deltas[i]) {
			t.Fatalf("%s: round %d counter delta diverges:\nfull scan %+v\nrouted    %+v",
				name, i, want.deltas[i], got.deltas[i])
		}
	}
	if !reflect.DeepEqual(want.final, got.final) {
		t.Fatalf("%s: final counters diverge:\nfull scan %+v\nrouted    %+v",
			name, want.final, got.final)
	}
}

// liveShardCounts is the shard matrix the live engine is proven on: the
// degenerate single worker, the smallest cross-shard gather, uneven splits,
// one node per worker, and the hardware default.
func liveShardCounts(n int) []int {
	var counts []int
	seen := map[int]bool{}
	for _, m := range []int{1, 2, 5, 8, n, runtime.NumCPU()} {
		if !seen[m] {
			seen[m] = true
			counts = append(counts, m)
		}
	}
	return counts
}

// TestIndexedScanMatchesFullScan is the routing correctness property test:
// for random predicates — including the mirror-routed violation predicate
// under heavy filter churn — over adversarial value distributions, the
// index-routed Sweep/Collect/DetectViolation must return byte-identical
// reports, per-round counter deltas, and final counters (i.e. identical
// messages and coin flips) to the full scan. The full-scan reference is a
// lockstep engine with routing force-disabled; compared against it are the
// routed lockstep engine and the live engine at every shard count in
// liveShardCounts.
func TestIndexedScanMatchesFullScan(t *testing.T) {
	const n, rounds, seed = 133, 80, 5
	for name := range distributions(n, rngx.New(0)) {
		t.Run(name, func(t *testing.T) {
			r := rngx.New(911)
			script := equivScript(n, rounds, distributions(n, r)[name], r, true)

			fullScan := New(n, seed)
			fullScan.SetFullScan(true)
			want := runEquivScript(fullScan, script)

			// Guard against a vacuous pass: the churn must manufacture
			// real violators, or the mirror was never exercised.
			nviol := 0
			for _, ok := range want.found {
				if ok {
					nviol++
				}
			}
			if nviol == 0 {
				t.Fatal("script produced no violation steps — filter churn too weak to exercise the mirror")
			}

			indexed := New(n, seed)
			diffTrails(t, "lockstep", want, runEquivScript(indexed, script))

			// The live engines replay the same script minus the
			// lockstep-only direct-sweep ablation ops; so does their
			// reference.
			var liveScript []equivOp
			for _, op := range script {
				if op.kind != opDirectSweep {
					liveScript = append(liveScript, op)
				}
			}
			ref := New(n, seed)
			ref.SetFullScan(true)
			liveWant := runEquivScript(ref, liveScript)
			for _, m := range liveShardCounts(n) {
				t.Run(fmt.Sprintf("live/m=%d", m), func(t *testing.T) {
					lc := live.New(n, seed, live.WithShards(m))
					defer lc.Close()
					diffTrails(t, fmt.Sprintf("live m=%d", m), liveWant, runEquivScript(lc, liveScript))
				})
			}
		})
	}
}

// TestIndexVisitsTrackSelectivity pins the point of the two structures: a
// Collect whose value interval isolates a few nodes must visit only them, a
// violation sweep must visit only the violators — zero on a quiet step —
// while the tag fallback keeps visiting all n nodes.
func TestIndexVisitsTrackSelectivity(t *testing.T) {
	const n = 1024
	e := New(n, 3)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1 << 10 // everyone cold in bucket 11
	}
	// Four hot nodes, alone in their magnitude class.
	for _, i := range []int{5, 100, 600, 1023} {
		vals[i] = 1 << 30
	}
	e.Advance(vals)

	before := e.VisitedNodes()
	reps := e.Collect(wire.InRange(1<<29, 1<<31))
	visited := e.VisitedNodes() - before
	if len(reps) != 4 {
		t.Fatalf("collect found %d hot nodes, want 4", len(reps))
	}
	if visited != 4 {
		t.Errorf("indexed collect visited %d nodes, want exactly the 4 candidates", visited)
	}

	before = e.VisitedNodes()
	e.Collect(wire.HasTag(wire.TagNone))
	if visited := e.VisitedNodes() - before; visited != n {
		t.Errorf("tag collect (fallback) visited %d nodes, want %d", visited, n)
	}

	// Quiet violation sweep: the mirror's violator set is empty, so all
	// γ+1 EXISTENCE rounds visit nothing — the tentpole win.
	before = e.VisitedNodes()
	if got := e.Sweep(wire.Violating()); got != nil {
		t.Fatalf("unexpected violators: %v", got)
	}
	if visited := e.VisitedNodes() - before; visited != 0 {
		t.Errorf("quiet violation sweep visited %d nodes, want 0", visited)
	}

	// Three manufactured violators: a direct-report violation sweep (one
	// round, no coin flips) visits exactly the mirrored violator set.
	for _, i := range []int{9, 700, 1023} {
		e.SetFilter(i, filter.Make(1, 2))
	}
	e.DirectReports = true
	before = e.VisitedNodes()
	if got := e.Sweep(wire.Violating()); len(got) != 3 {
		t.Fatalf("violation sweep found %d violators, want 3", len(got))
	}
	if visited := e.VisitedNodes() - before; visited != 3 {
		t.Errorf("violation sweep visited %d nodes, want exactly the 3 violators", visited)
	}
	e.DirectReports = false
}
