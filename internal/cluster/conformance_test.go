package cluster_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// engines under conformance test: the lockstep reference plus the live
// engine in its sharded configurations — one worker, two workers (the
// smallest layout with cross-shard gather), one worker per core (the
// default), and one worker per node (every delta entry on its own shard) —
// so the unit-cost accounting and Reset(seed) byte-equality cover every
// worker-shard code path. At these sizes every call is below the engine's
// parallel grain and runs on the caller, so the /workers entries (grain 0:
// every call through the worker goroutines) keep the other dispatch under
// the same suites, the race job's -short run included.
func engines(n int, seed uint64) map[string]func() (cluster.Engine, func()) {
	mkLive := func(m int, opts ...live.Option) func() (cluster.Engine, func()) {
		return func() (cluster.Engine, func()) {
			c := live.New(n, seed, append(opts, live.WithShards(m))...)
			return c, c.Close
		}
	}
	return map[string]func() (cluster.Engine, func()){
		"lockstep": func() (cluster.Engine, func()) {
			return lockstep.New(n, seed), func() {}
		},
		"live/m=1":         mkLive(1),
		"live/m=2":         mkLive(2),
		"live/m=cpu":       mkLive(runtime.NumCPU()),
		"live/m=n":         mkLive(n),
		"live/m=2/workers": mkLive(2, live.WithGrain(0)),
		"live/m=n/workers": mkLive(n, live.WithGrain(0)),
	}
}

// nodeOf reads node i through the white-box Node accessor both engines
// have, outside the cluster interfaces; valuesOf and tagsOf read every
// node's state with it.
func nodeOf(e cluster.Engine, i int) *nodecore.Node {
	return e.(interface{ Node(int) *nodecore.Node }).Node(i)
}

func valuesOf(e cluster.Engine) []int64 {
	out := make([]int64, e.N())
	for i := range out {
		out[i] = nodeOf(e, i).Value
	}
	return out
}

func tagsOf(e cluster.Engine) []wire.Tag {
	out := make([]wire.Tag, e.N())
	for i := range out {
		out[i] = nodeOf(e, i).Tag
	}
	return out
}

// TestConformanceMessageCosts pins the exact unit-cost accounting of every
// primitive on both engines.
func TestConformanceMessageCosts(t *testing.T) {
	for name, mk := range engines(8, 3) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			eng.Advance([]int64{10, 20, 30, 40, 50, 60, 70, 80})

			cost := func(f func()) int64 {
				before := *eng.Counters()
				f()
				return eng.Counters().Sub(before).Total()
			}

			if got := cost(func() { eng.BroadcastRule(new(wire.FilterRule)) }); got != 1 {
				t.Errorf("BroadcastRule cost %d, want 1", got)
			}
			if got := cost(func() { eng.SetFilter(2, filter.All) }); got != 1 {
				t.Errorf("SetFilter cost %d, want 1", got)
			}
			if got := cost(func() { eng.SetTagFilter(2, wire.TagV1, filter.All) }); got != 1 {
				t.Errorf("SetTagFilter cost %d, want 1", got)
			}
			if got := cost(func() { eng.Probe(3) }); got != 2 {
				t.Errorf("Probe cost %d, want 2", got)
			}
			// Collect: 1 broadcast + 1 per match (values 30..50 → 3).
			if got := cost(func() { eng.Collect(wire.InRange(30, 50)) }); got != 4 {
				t.Errorf("Collect cost %d, want 4", got)
			}
			// Silent sweep is free.
			if got := cost(func() { eng.Sweep(wire.Violating()) }); got != 0 {
				t.Errorf("silent Sweep cost %d, want 0", got)
			}
			if got := cost(func() { eng.MaxFindInit(-1, true) }); got != 1 {
				t.Errorf("MaxFindInit cost %d, want 1", got)
			}
			if got := cost(func() { eng.MaxFindRaise(1, 20) }); got != 1 {
				t.Errorf("MaxFindRaise cost %d, want 1", got)
			}
			if got := cost(func() { eng.MaxFindExclude(1) }); got != 1 {
				t.Errorf("MaxFindExclude cost %d, want 1", got)
			}
		})
	}
}

// TestConformanceIndexFallbacks pins the engine-side full-scan accounting:
// tag predicates and domain-covering intervals bill exactly one fallback
// per Sweep/Collect; routable intervals, violation sweeps (resolved from
// the violator set) and the max-find predicate at any threshold (resolved
// from the active list) bill none — and both engines, at every shard
// count, agree because the decision is made from the predicate alone.
func TestConformanceIndexFallbacks(t *testing.T) {
	for name, mk := range engines(8, 3) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			eng.Advance([]int64{10, 20, 30, 40, 50, 60, 70, 80})

			eng.Sweep(wire.Violating())            // mirror-routed → no fallback
			eng.Collect(wire.HasTag(wire.TagNone)) // state-decided → fallback
			eng.Collect(wire.InRange(30, 50))      // routed
			eng.Sweep(wire.InRange(200, 300))      // routed (silent)
			eng.MaxFindInit(-1, true)
			eng.Collect(wire.AboveActive(-1))          // active list → no fallback
			eng.Sweep(wire.AboveActive(-1))            // active list → no fallback
			eng.Collect(wire.InRange(0, eps.MaxValue)) // domain-covering → fallback

			if got := eng.Counters().IndexFallbacks(); got != 2 {
				t.Errorf("IndexFallbacks = %d, want 2", got)
			}
			eng.Reset(3)
			if got := eng.Counters().IndexFallbacks(); got != 0 {
				t.Errorf("Reset left IndexFallbacks = %d", got)
			}
		})
	}
}

// TestConformanceQuietStepsNoFallbacks pins the headline regression of the
// filter-interval mirror: the scheduled per-step violation sweep is
// mirror-routed, so a long run of quiet steps — values moving strictly
// inside their filters, every violation sweep finding nothing — bills ZERO
// index fallbacks AND zero messages on both engines at every shard count.
// If routing ever regresses to the full scan, the fallback counter moves
// and this test names the engine.
func TestConformanceQuietStepsNoFallbacks(t *testing.T) {
	const n, steps = 64, 50
	for name, mk := range engines(n, 5) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			// Wide filters admit the whole value walk below: every step
			// stays quiet.
			eng.Advance(make([]int64, n))
			eng.BroadcastRule(new(wire.FilterRule).With(wire.TagNone, filter.Make(0, 2000)))
			before := *eng.Counters()
			vals := make([]int64, n)
			for step := 0; step < steps; step++ {
				for i := range vals {
					vals[i] = int64((step*37 + i*13) % 2000)
				}
				eng.Advance(vals)
				eng.Sweep(wire.Violating())
				if _, ok := eng.DetectViolation(); ok {
					t.Fatal("quiet step produced a violation")
				}
				eng.EndStep()
			}
			d := eng.Counters().Sub(before)
			if d.IndexFallbacks() != 0 {
				t.Errorf("quiet steps billed %d index fallbacks, want 0", d.IndexFallbacks())
			}
			if d.Total() != 0 {
				t.Errorf("quiet steps spent %d messages, want 0", d.Total())
			}
		})
	}
}

// TestConformanceSweepChannelSplit: a sweep with violators bills node
// reports on the node→server channel plus exactly one halt broadcast.
func TestConformanceSweepChannelSplit(t *testing.T) {
	for name, mk := range engines(16, 7) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			vals := make([]int64, 16)
			eng.Advance(vals)
			eng.SetFilter(5, filter.Make(1, 2))
			before := *eng.Counters()
			senders := eng.Sweep(wire.Violating())
			if len(senders) == 0 {
				t.Fatal("missed violator")
			}
			d := eng.Counters().Sub(before)
			if d.ByChannel(metrics.Broadcast) != 1 {
				t.Errorf("halt broadcasts = %d, want 1", d.ByChannel(metrics.Broadcast))
			}
			if d.ByChannel(metrics.NodeToServer) != int64(len(senders)) {
				t.Errorf("node reports %d != senders %d",
					d.ByChannel(metrics.NodeToServer), len(senders))
			}
		})
	}
}

// TestConformanceTagAndFilterState: state mutations via broadcast rules and
// unicasts land identically in the nodes on every engine.
func TestConformanceTagAndFilterState(t *testing.T) {
	for name, mk := range engines(4, 11) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			eng.Advance([]int64{1, 2, 3, 4})
			eng.SetTagFilter(1, wire.TagV2S2, filter.Make(5, 6))
			rule := new(wire.FilterRule).
				WithRetag(wire.TagV2S2, wire.TagV2).
				With(wire.TagV2, filter.Make(7, 8)).
				With(wire.TagNone, filter.Make(0, 100))
			eng.BroadcastRule(rule)
			tags, filters := tagsOf(eng), eng.FiltersInto(nil)
			if tags[1] != wire.TagV2 || filters[1] != filter.Make(7, 8) {
				t.Errorf("node 1 state: %v %v", tags[1], filters[1])
			}
			if tags[0] != wire.TagNone || filters[0] != filter.Make(0, 100) {
				t.Errorf("node 0 state: %v %v", tags[0], filters[0])
			}
		})
	}
}

// TestConformanceDetectOnlyViolators: DetectViolation never reports a node
// that is inside its filter, across many configurations.
func TestConformanceDetectOnlyViolators(t *testing.T) {
	for name, mk := range engines(12, 13) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			for round := 0; round < 20; round++ {
				vals := make([]int64, 12)
				for i := range vals {
					vals[i] = int64(i * 10)
				}
				eng.Advance(vals)
				// Fence nodes round and round+1 out.
				a, b := round%12, (round+1)%12
				eng.SetFilter(a, filter.Make(1000, 2000))
				eng.SetFilter(b, filter.Make(1000, 2000))
				rep, ok := eng.DetectViolation()
				if !ok {
					t.Fatalf("round %d: violations missed", round)
				}
				if rep.ID != a && rep.ID != b {
					t.Fatalf("round %d: reported non-violator %d", round, rep.ID)
				}
				eng.SetFilter(a, filter.All)
				eng.SetFilter(b, filter.All)
			}
		})
	}
}

// TestConformanceDeferredReadsSeeCallOrderValues: MaxFindInit reads node
// values when it runs, so it must see the values of the PRECEDING Advance
// and not those of a further Advance that follows before any reply-bearing
// call — the call-order semantics both engines have by construction, since
// each call completes at the nodes before it returns.
func TestConformanceDeferredReadsSeeCallOrderValues(t *testing.T) {
	for name, mk := range engines(4, 19) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			eng.Advance([]int64{10, 1, 1, 1})
			eng.MaxFindInit(5, true) // node 0 activates: 10 > 5
			eng.Advance([]int64{0, 1, 1, 1})
			senders := eng.Sweep(wire.AboveActive(-1))
			if len(senders) != 1 || senders[0].ID != 0 {
				t.Fatalf("senders = %v, want exactly node 0 (activated at value 10, still active at value 0)", senders)
			}
		})
	}
}

// TestConformanceRoundsAccounted: sweeps and collects consume protocol
// rounds on every engine, exactly as the model bills them — a silent sweep
// its γ+1 rounds though it ends after round 0, a Collect one.
func TestConformanceRoundsAccounted(t *testing.T) {
	const n = 32
	gamma := int64(nodecore.ExistenceRounds(n)) // 5
	for name, mk := range engines(n, 17) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			eng.Advance(make([]int64, n))
			eng.Sweep(wire.Violating()) // silent: γ+1 rounds
			eng.Collect(wire.InRange(0, 0))
			eng.EndStep()
			if got := eng.Counters().MaxRoundsPerStep(); got != gamma+2 {
				t.Errorf("rounds/step = %d, want γ+2 = %d", got, gamma+2)
			}
		})
	}
}

// TestConformanceDeltaEqualsDense is the delta contract: on twin engines
// fed the same random walk, AdvanceDirty(values, dirty) leaves the engine
// in the state Advance(values) does — values, filters, every kind of
// report, every counter — after each of a few thousand steps of value moves
// and filter churn. The dirty lists come in every shape the contract
// allows: empty, one id, a shuffled handful with duplicates, ids whose
// value did not move, and the full vector.
func TestConformanceDeltaEqualsDense(t *testing.T) {
	const n, domain = 48, 96
	steps := 3000
	if testing.Short() {
		steps = 400 // the race job: barrier rounds cost ~50× under the detector
	}
	for name, mk := range engines(n, 23) {
		t.Run(name, func(t *testing.T) {
			dense, doneDense := mk()
			defer doneDense()
			delta, doneDelta := mk()
			defer doneDelta()
			both := [2]cluster.Engine{dense, delta}

			r := rngx.New(41)
			vals := make([]int64, n)
			var dirty []int
			var gotF, wantF []filter.Interval
			violations := 0
			for step := 0; step < steps; step++ {
				dirty = dirty[:0]
				switch r.Intn(8) {
				case 0: // heartbeat
				case 1: // full vector, id order (load batch, cold start, sim)
					for i := range vals {
						vals[i] = r.Int63n(domain)
						dirty = append(dirty, i)
					}
				default: // a handful in push order, duplicates and no-op moves included
					for j := r.Intn(6) + 1; j > 0; j-- {
						id := r.Intn(n)
						if r.Intn(4) > 0 {
							vals[id] = r.Int63n(domain)
						}
						dirty = append(dirty, id)
					}
				}
				dense.Advance(vals)
				delta.AdvanceDirty(vals, dirty)

				// Filter churn, so the moves above cross filter edges and
				// the violator set keeps changing under both install orders.
				id, lo := r.Intn(n), r.Int63n(domain)
				iv := filter.Make(lo, lo+r.Int63n(domain/2))
				for _, e := range both {
					switch step % 5 {
					case 0:
						e.SetFilter(id, iv)
					case 1:
						e.SetTagFilter(id, wire.TagV2, iv)
					case 2:
						e.BroadcastRule(new(wire.FilterRule).With(wire.TagV2, iv))
					case 3:
						e.MaxFindInit(lo, step%2 == 0)
					}
				}

				ctx := fmt.Sprintf("step %d (dirty %v)", step, dirty)
				wantV, gotV := valuesOf(dense), valuesOf(delta)
				if !reflect.DeepEqual(wantV, gotV) {
					t.Fatalf("%s: values diverge:\ndense %v\ndelta %v", ctx, wantV, gotV)
				}
				wantF, gotF = dense.FiltersInto(wantF), delta.FiltersInto(gotF)
				if !reflect.DeepEqual(wantF, gotF) {
					t.Fatalf("%s: filters diverge:\ndense %v\ndelta %v", ctx, wantF, gotF)
				}
				for _, p := range []wire.Pred{
					wire.Violating(), wire.InRange(lo, lo+8), wire.AboveActive(lo), wire.HasTag(wire.TagV2),
				} {
					want, got := dense.Collect(p), delta.Collect(p)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: Collect(%+v) diverges:\ndense %v\ndelta %v", ctx, p, want, got)
					}
					if want, got = dense.Sweep(p), delta.Sweep(p); !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: Sweep(%+v) diverges:\ndense %v\ndelta %v", ctx, p, want, got)
					}
				}
				wantRep, wantOK := dense.DetectViolation()
				gotRep, gotOK := delta.DetectViolation()
				if wantRep != gotRep || wantOK != gotOK {
					t.Fatalf("%s: DetectViolation diverges: dense %v %v, delta %v %v", ctx, wantRep, wantOK, gotRep, gotOK)
				}
				if wantOK {
					violations++
				}
				if want, got := dense.Probe(id), delta.Probe(id); want != got {
					t.Fatalf("%s: Probe(%d) diverges: dense %v, delta %v", ctx, id, want, got)
				}
				dense.EndStep()
				delta.EndStep()
				if want, got := *dense.Counters(), *delta.Counters(); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: counters diverge:\ndense %+v\ndelta %+v", ctx, want, got)
				}
			}
			if violations < steps/10 {
				t.Fatalf("only %d of %d steps had a violator: the churn is too weak to exercise the violator set", violations, steps)
			}
		})
	}
}

// TestConformanceEmptyDelta: a heartbeat moves nothing and costs nothing —
// no message, no round, no index fallback, every value where it was.
func TestConformanceEmptyDelta(t *testing.T) {
	for name, mk := range engines(8, 29) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			vals := []int64{10, 20, 30, 40, 50, 60, 70, 80}
			eng.Advance(vals)
			before := *eng.Counters()
			eng.AdvanceDirty(vals, nil)
			eng.AdvanceDirty(vals, []int{})
			eng.EndStep()
			if d := eng.Counters().Sub(before); d.Total() != 0 || d.IndexFallbacks() != 0 || d.MaxRoundsPerStep() != 0 {
				t.Errorf("heartbeat billed %+v, want nothing", d)
			}
			if got := valuesOf(eng); !reflect.DeepEqual(got, vals) {
				t.Errorf("heartbeat moved values: %v, want %v", got, vals)
			}
		})
	}
}

// TestConformanceDeltaDuplicateIDs: an id listed twice is installed twice
// with the same entry of values, which is the same as once.
func TestConformanceDeltaDuplicateIDs(t *testing.T) {
	for name, mk := range engines(8, 31) {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			vals := make([]int64, 8)
			eng.Advance(vals)
			eng.SetFilter(5, filter.Make(0, 9))
			vals[5], vals[2] = 77, 3
			eng.AdvanceDirty(vals, []int{5, 2, 5, 5, 2})
			if got := valuesOf(eng); !reflect.DeepEqual(got, vals) {
				t.Errorf("values %v, want %v", got, vals)
			}
			want := []wire.Report{{ID: 5, Value: 77, Dir: filter.DirUp}}
			if got := eng.Collect(wire.Violating()); !reflect.DeepEqual(got, want) {
				t.Errorf("violators %v, want %v", got, want)
			}
		})
	}
}

// TestConformanceAdvanceRangePanic: both forms reject a value outside
// [0, eps.MaxValue] with the same panic, the delta form checks exactly the
// entries it installs, and after its package prefix the text is the lockstep
// engine's on every engine.
func TestConformanceAdvanceRangePanic(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	afterPrefix := func(msg string) string {
		_, text, _ := strings.Cut(msg, ": ")
		return text
	}
	for name, mk := range engines(4, 37) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []int64{-1, eps.MaxValue + 1} {
				vals := []int64{1, 2, bad, 4}
				dense, doneDense := mk()
				want := panicOf(func() { dense.Advance(vals) })
				doneDense()
				if want == "<nil>" {
					t.Fatalf("dense Advance accepted value %d", bad)
				}
				ref := panicOf(func() { lockstep.New(4, 37).Advance(vals) })
				if afterPrefix(want) != afterPrefix(ref) {
					t.Errorf("panic %q, lockstep panics %q: the text after the package prefix differs", want, ref)
				}
				delta, doneDelta := mk()
				if got := panicOf(func() { delta.AdvanceDirty(vals, []int{0, 3}) }); got != "<nil>" {
					t.Errorf("delta not naming node 2 panicked on its value %d: %s", bad, got)
				}
				if got := panicOf(func() { delta.AdvanceDirty(vals, []int{3, 2}) }); got != want {
					t.Errorf("delta panic %q, dense panic %q", got, want)
				}
				doneDelta()
			}
		})
	}
}

// TestConformanceAdvanceLengthPanic: both Advance forms reject a value
// vector that does not have one entry per node, on every engine, whatever
// the dirty list names.
func TestConformanceAdvanceLengthPanic(t *testing.T) {
	const n = 4
	for name, mk := range engines(n, 37) {
		t.Run(name, func(t *testing.T) {
			for _, vals := range [][]int64{{1, 2, 3}, {1, 2, 3, 4, 5}} {
				for form, advance := range map[string]func(cluster.Engine){
					"dense": func(e cluster.Engine) { e.Advance(vals) },
					"delta": func(e cluster.Engine) { e.AdvanceDirty(vals, []int{0}) },
					"empty": func(e cluster.Engine) { e.AdvanceDirty(vals, nil) },
				} {
					eng, done := mk()
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s Advance with %d values for %d nodes did not panic", form, len(vals), n)
							}
						}()
						advance(eng)
					}()
					done()
				}
			}
		})
	}
}

// TestConformanceSweepCoinsMatchPerRoundLoop pins the engines' sweep — the
// predicate resolved once at the nodes, the sender ranks drawn by the
// server, the reports read at those ranks only, a silent sweep ended after
// one barrier — to a plain per-round reference, the oracle: every round
// walks all nodes, re-evaluates Match, ranks the matchers in id order and
// takes the reports of those at the ranks the sampler draws for the round
// from a copy of the server stream. After every sweep the senders, the
// rounds billed, and the server stream's state must equal the oracle's,
// for silent, one-matcher and all-match sweeps of each routable predicate
// kind, on every engine configuration.
func TestConformanceSweepCoinsMatchPerRoundLoop(t *testing.T) {
	const n, seed = 37, 43
	gaps := nodecore.NewGaps(n)
	// refSweep is the per-round reference over plain nodes, with max-find
	// activity the reference's own flags (active).
	refSweep := func(nodes []*nodecore.Node, active []bool, p wire.Pred, rng *rngx.Source) (senders []wire.Report, rounds int64) {
		gamma := nodecore.ExistenceRounds(n)
		for r := 0; r <= gamma; r++ {
			rounds++
			var matchers []*nodecore.Node
			for _, nd := range nodes {
				if nd.Match(p) && (p.Kind != wire.PredAboveActive || active[nd.ID]) {
					matchers = append(matchers, nd)
				}
			}
			for _, rank := range gaps.Ranks(nil, rng, r, len(matchers)) {
				nd := matchers[rank]
				senders = append(senders, wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()})
			}
			if len(senders) > 0 {
				return senders, rounds
			}
		}
		return nil, rounds
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1000 + 10*i) // all in [1000, 1360]
	}
	scenarios := []struct {
		name  string
		setup func(setFilter func(id int, iv filter.Interval), maxFindInit func(floor int64))
		pred  wire.Pred
	}{
		{"violating/silent", func(func(int, filter.Interval), func(int64)) {}, wire.Violating()},
		{"violating/one", func(set func(int, filter.Interval), _ func(int64)) {
			set(21, filter.Make(0, 5))
		}, wire.Violating()},
		{"violating/all", func(set func(int, filter.Interval), _ func(int64)) {
			for i := 0; i < n; i++ {
				set(i, filter.Make(0, 5))
			}
		}, wire.Violating()},
		{"above-active/silent", func(_ func(int, filter.Interval), init func(int64)) { init(5000) }, wire.AboveActive(-1)},
		{"above-active/one", func(_ func(int, filter.Interval), init func(int64)) { init(1355) }, wire.AboveActive(-1)},
		{"above-active/all", func(_ func(int, filter.Interval), init func(int64)) { init(-1) }, wire.AboveActive(-1)},
		{"above-active/threshold", func(_ func(int, filter.Interval), init func(int64)) { init(-1) }, wire.AboveActive(1200)},
		{"in-range/silent", func(func(int, filter.Interval), func(int64)) {}, wire.InRange(2000, 3000)},
		{"in-range/one", func(func(int, filter.Interval), func(int64)) {}, wire.InRange(1100, 1105)},
		{"in-range/all", func(func(int, filter.Interval), func(int64)) {}, wire.InRange(1000, 1360)},
		{"has-tag/all", func(func(int, filter.Interval), func(int64)) {}, wire.HasTag(wire.TagNone)},
	}
	for name, mk := range engines(n, seed) {
		for _, sc := range scenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				eng, done := mk()
				defer done()
				stream := rngx.New(seed).Child(nodecore.ServerRNG)
				ref, refActive := make([]*nodecore.Node, n), make([]bool, n)
				for i := range ref {
					ref[i] = nodecore.New(i)
					ref[i].Observe(vals[i])
				}
				eng.Advance(vals)
				sc.setup(
					func(id int, iv filter.Interval) {
						eng.SetFilter(id, iv)
						ref[id].SetFilter(iv)
					},
					func(floor int64) {
						eng.MaxFindInit(floor, true)
						for i, nd := range ref {
							refActive[i] = nd.Value > floor
						}
					})
				eng.EndStep()

				// Several sweeps in a row: the stream keeps diverging from
				// its seed, and a single draw out of turn in one sweep
				// shows in the next at the latest.
				for sweep := 0; sweep < 12; sweep++ {
					want, rounds := refSweep(ref, refActive, sc.pred, stream)
					got := eng.Sweep(sc.pred)
					if !reflect.DeepEqual(append([]wire.Report(nil), got...), want) {
						t.Fatalf("sweep %d: senders %v, the per-round loop sends %v", sweep, got, want)
					}
					if *eng.Rand() != *stream {
						t.Fatalf("sweep %d: the server stream's state diverged from the per-round loop's", sweep)
					}
					eng.EndStep()
					if billed := eng.Counters().MaxRoundsPerStep(); sweep == 0 && billed != rounds {
						t.Fatalf("sweep billed %d rounds, the per-round loop runs %d", billed, rounds)
					}
				}
			})
		}
	}
}
