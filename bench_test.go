// The root benchmarks regenerate every reproduction experiment
// (one Benchmark per table/claim, E1–E14) plus micro-benchmarks of the
// communication primitives.
//
// Run with: go test -bench=. -benchmem
package topkmon

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/exp"
	"topkmon/internal/filter"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/offline"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/sim"
	"topkmon/internal/sketch"
	"topkmon/internal/stream"
	istream "topkmon/internal/stream/items"
	"topkmon/internal/wire"
	"topkmon/topk"
	"topkmon/topk/items"
)

// benchExperiment runs one registered experiment per iteration (quick mode)
// with the given worker count (0 = GOMAXPROCS).
func benchExperiment(b *testing.B, id string, parallelism int) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(exp.Options{Quick: true, Seed: uint64(i) + 1, Parallelism: parallelism})
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// The base experiment benchmarks pin Parallelism to 1 so their numbers stay
// comparable across machines; the *Parallel variants use every core
// (identical tables, lower wall clock — compare with benchstat).
func BenchmarkE1Existence(b *testing.B)        { benchExperiment(b, "E1", 1) }
func BenchmarkE2MaxFind(b *testing.B)          { benchExperiment(b, "E2", 1) }
func BenchmarkE3ExactCompetitive(b *testing.B) { benchExperiment(b, "E3", 1) }
func BenchmarkE4TopKProtocol(b *testing.B)     { benchExperiment(b, "E4", 1) }
func BenchmarkE5LowerBound(b *testing.B)       { benchExperiment(b, "E5", 1) }
func BenchmarkE6Dense(b *testing.B)            { benchExperiment(b, "E6", 1) }
func BenchmarkE7HalfEps(b *testing.B)          { benchExperiment(b, "E7", 1) }
func BenchmarkE8EpsilonSavings(b *testing.B)   { benchExperiment(b, "E8", 1) }
func BenchmarkE9PhaseAblation(b *testing.B)    { benchExperiment(b, "E9", 1) }
func BenchmarkE10Compliance(b *testing.B)      { benchExperiment(b, "E10", 1) }
func BenchmarkE11SweepAblation(b *testing.B)   { benchExperiment(b, "E11", 1) }

func BenchmarkE12Selectivity(b *testing.B)  { benchExperiment(b, "E12", 1) }
func BenchmarkE13HeavyHitters(b *testing.B) { benchExperiment(b, "E13", 1) }
func BenchmarkE14Openings(b *testing.B)     { benchExperiment(b, "E14", 1) }

func BenchmarkE1ExistenceParallel(b *testing.B)      { benchExperiment(b, "E1", 0) }
func BenchmarkE8EpsilonSavingsParallel(b *testing.B) { benchExperiment(b, "E8", 0) }
func BenchmarkE11SweepAblationParallel(b *testing.B) { benchExperiment(b, "E11", 0) }

// --- micro-benchmarks of the primitives ---

// BenchmarkSweepSilent measures the zero-violation fast path of the
// EXISTENCE sweep (the steady-state cost of a quiet time step) on both
// engines. On the live engine a silent sweep is ONE node round — round 0
// brings back zero matchers — not γ+1 (TestSweepBarriers asserts it). That
// round is far below the parallel grain and runs on the caller: ≈110 ns
// against lockstep's 35 on a 2-core container (≈0.7 µs when it woke the
// workers).
func BenchmarkSweepSilent(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := lockstep.New(n, 1)
			e.Advance(make([]int64, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); got != nil {
					b.Fatal("unexpected senders")
				}
			}
		})
		b.Run(fmt.Sprintf("live/n=%d", n), func(b *testing.B) {
			e := live.New(n, 1, live.WithShards(2))
			defer e.Close()
			e.Advance(make([]int64, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); got != nil {
					b.Fatal("unexpected senders")
				}
			}
		})
	}
}

// BenchmarkSweepOneViolator measures detection latency with one violator.
func BenchmarkSweepOneViolator(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := lockstep.New(n, 1)
			vals := make([]int64, n)
			e.Advance(vals)
			e.SetFilter(3, filter.Make(5, 10))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); len(got) == 0 {
					b.Fatal("missed violator")
				}
			}
		})
	}
}

// BenchmarkViolationSweep is the tentpole measurement of the violator set
// (BENCH.md has the before/after): the scheduled violation sweep of a
// quiet step, and the same sweep with a single violator, on the routed
// engine vs. the FullScan ablation. The quiet indexed variant is the
// protocol's steady-state per-step cost and must be O(1) in n and 0
// allocs/op; the full-scan ablation is what every quiet step cost before
// the violator set — the acceptance bar is ≥100× between the two at
// n=16384.
func BenchmarkViolationSweep(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		for _, mode := range []struct {
			name string
			full bool
		}{{"indexed", false}, {"fullscan", true}} {
			b.Run(fmt.Sprintf("quiet/%s/n=%d", mode.name, n), func(b *testing.B) {
				e := lockstep.New(n, 1)
				e.SetFullScan(mode.full)
				e.Advance(make([]int64, n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := e.Sweep(wire.Violating()); got != nil {
						b.Fatal("unexpected senders")
					}
				}
			})
			b.Run(fmt.Sprintf("one-violator/%s/n=%d", mode.name, n), func(b *testing.B) {
				e := lockstep.New(n, 1)
				e.SetFullScan(mode.full)
				e.Advance(make([]int64, n))
				e.SetFilter(3, filter.Make(5, 10))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := e.Sweep(wire.Violating()); len(got) == 0 {
						b.Fatal("missed violator")
					}
				}
			})
		}
	}
}

// hotRange is the value interval isolating exp.HotCold's hot bucket (the
// same workload experiment E12 pins deterministic visit counts on).
var hotRange = exp.HotInterval()

// BenchmarkSweepSelectivity measures how the value-indexed engines' scan
// cost follows the plausible-matcher count σ instead of n (the ROADMAP
// "sharded server state" item; BENCH.md has the headline numbers):
//
//   - collect/n=…/σ=… — latency grows with σ at fixed n and stays
//     near-flat in n at fixed σ;
//   - sweep-hit/… — an EXISTENCE sweep whose predicate interval isolates
//     the σ hot nodes: only they are resolved and ranked;
//   - sweep-quiet-indexed/… — a matchless interval sweep: the index makes
//     all γ+1 rounds free, where the state-decided fallback
//     (sweep-quiet-fallback, = the violation sweep of a quiet step) still
//     scans all n nodes per round.
//
// All variants must stay at 0 allocs/op — the index and its candidate
// scratch are engine-owned and reused.
func BenchmarkSweepSelectivity(b *testing.B) {
	const nFixed = 4096
	mk := func(n, sigma int) *lockstep.Engine {
		e := lockstep.New(n, 1)
		vals := make([]int64, n)
		exp.HotCold(vals, sigma)
		e.Advance(vals)
		return e
	}
	for _, sigma := range []int{1, 16, 256, nFixed} {
		b.Run(fmt.Sprintf("collect/n=%d/sigma=%d", nFixed, sigma), func(b *testing.B) {
			e := mk(nFixed, sigma)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Collect(hotRange); len(got) != sigma {
					b.Fatalf("matched %d, want %d", len(got), sigma)
				}
			}
		})
	}
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("collect/sigma=16/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Collect(hotRange); len(got) != 16 {
					b.Fatalf("matched %d, want 16", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("collect-fallback/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Collect(wire.HasTag(wire.TagNone)); len(got) != n {
					b.Fatal("tag collect must match every node")
				}
			}
		})
	}
	for _, sigma := range []int{1, 256} {
		b.Run(fmt.Sprintf("sweep-hit/n=%d/sigma=%d", nFixed, sigma), func(b *testing.B) {
			e := mk(nFixed, sigma)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(hotRange); len(got) == 0 {
					b.Fatal("sweep missed the hot nodes")
				}
			}
		})
	}
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("sweep-quiet-indexed/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			empty := wire.InRange(1<<38, 1<<39) // above every value
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(empty); got != nil {
					b.Fatal("unexpected senders")
				}
			}
		})
		b.Run(fmt.Sprintf("sweep-quiet-fallback/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); got != nil {
					b.Fatal("unexpected violators")
				}
			}
		})
	}
}

// sketchKinds enumerates the streaming summaries for the sketch hot-path
// benchmarks (sized to the E13 / topk-items operating point: 128 counters).
func sketchKinds() []struct {
	name string
	mk   func() sketch.Summary
} {
	return []struct {
		name string
		mk   func() sketch.Summary
	}{
		{"space-saving", func() sketch.Summary { return sketch.NewSpaceSaving(128) }},
		{"misra-gries", func() sketch.Summary { return sketch.NewMisraGries(128) }},
	}
}

// sketchTrace pre-generates a zipf-skewed item sequence outside the timed
// loops so the sketch benchmarks measure only the summaries.
func sketchTrace(n int) []uint64 {
	gen := istream.NewZipf(1, 4096, n, 1.2, 99)
	evs := gen.Next(0, make([]istream.Event, 0, n))
	trace := make([]uint64, len(evs))
	for i, e := range evs {
		trace[i] = uint64(e.Item)
	}
	return trace
}

// BenchmarkSketchObserve measures the per-event ingest cost of each
// summary on a zipf(1.2) item stream — the sketch layer's hot path — and
// Space-Saving's on the two streams that empty its floor of the minimum
// count most often: the same stream with weights 1..40 (counts nearly all
// distinct, so a floor holds few slots) and a uniform one over 2^20 items
// (nearly every event an eviction), and on the items-zipf workload's
// stream: 8 nodes' summaries fed zipf(1.1) events over 4096 items in the
// order the generator emits them (37 % of them evictions). Those
// three rows observe their whole trace before the timer starts and, after
// the timed loop, require every summary's Heavy to equal a reference
// Space-Saving's (refSpaceSaving), so a run at -benchtime=1x checks them
// too. 0 allocs/op is the enforced budget (sketch's TestObserveAllocs).
func BenchmarkSketchObserve(b *testing.B) {
	trace := sketchTrace(1 << 14)
	for _, s := range sketchKinds() {
		b.Run(s.name, func(b *testing.B) {
			sum := s.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum.Observe(trace[i&(len(trace)-1)], 1)
			}
		})
	}
	rng := rngx.New(5)
	weights := make([]int64, len(trace))
	for i := range weights {
		weights[i] = 1 + rng.Int63n(40)
	}
	uniform, ones := make([]uint64, 1<<16), make([]int64, 1<<16)
	for i := range uniform {
		uniform[i], ones[i] = uint64(rng.Intn(1<<20)), 1
	}
	zipf, zipfAt := make([]uint64, 0, 1<<16), make([]int, 0, 1<<16)
	gen := istream.NewZipf(8, 4096, 2048, 1.1, 13)
	for s, buf := 0, []istream.Event(nil); len(zipf) < 1<<16; s++ {
		buf = gen.Next(s, buf[:0])
		for _, e := range buf {
			zipf, zipfAt = append(zipf, uint64(e.Item)), append(zipfAt, e.Node)
		}
	}
	for _, row := range []struct {
		name   string
		items  []uint64
		deltas []int64
		nodes  []int // event -> summary
	}{
		{"space-saving-weighted", trace, weights, make([]int, len(trace))},
		{"space-saving-all-miss", uniform, ones, make([]int, len(uniform))},
		{"space-saving-items-zipf", zipf, ones, zipfAt},
	} {
		b.Run(row.name, func(b *testing.B) {
			items, deltas, nodes, mask := row.items, row.deltas, row.nodes, len(row.items)-1
			sums := make([]*sketch.SpaceSaving, slices.Max(nodes)+1)
			refs := make([]*refSpaceSaving, len(sums))
			for n := range sums {
				sums[n] = sketch.NewSpaceSaving(128)
				refs[n] = &refSpaceSaving{c: 128, at: make(map[uint64]int64)}
			}
			for i := range items {
				sums[nodes[i]].Observe(items[i], deltas[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & mask
				sums[nodes[j]].Observe(items[j], deltas[j])
			}
			b.StopTimer()
			for i := range items {
				refs[nodes[i]].observe(items[i], deltas[i])
			}
			for i := 0; i < b.N; i++ {
				j := i & mask
				refs[nodes[j]].observe(items[j], deltas[j])
			}
			for n, sum := range sums {
				if got, want := sum.Heavy(128, nil), refs[n].heavy(); !slices.Equal(got, want) {
					b.Fatalf("summary %d: Heavy differs from the reference:\n%v\n%v", n, got, want)
				}
			}
		})
	}
}

// refSpaceSaving is Space-Saving over a slice kept sorted by (count, item),
// the order in which it evicts.
type refSpaceSaving struct {
	c   int
	ord []sketch.Counter // ascending (Count, Item)
	at  map[uint64]int64 // item -> count
}

func (r *refSpaceSaving) observe(item uint64, delta int64) {
	c := sketch.Counter{Item: item, Count: delta}
	if cnt, ok := r.at[item]; ok {
		i := r.find(cnt, item)
		c = r.ord[i]
		c.Count += delta
		r.ord = slices.Delete(r.ord, i, i+1)
	} else if len(r.ord) == r.c {
		m := r.ord[0]
		delete(r.at, m.Item)
		c.Count, c.Err = m.Count+delta, m.Count
		r.ord = slices.Delete(r.ord, 0, 1)
	}
	r.at[item] = c.Count
	r.ord = slices.Insert(r.ord, r.find(c.Count, item), c)
}

// find returns the position of (cnt, item) in ord.
func (r *refSpaceSaving) find(cnt int64, item uint64) int {
	i, _ := slices.BinarySearchFunc(r.ord, sketch.Counter{Item: item, Count: cnt}, func(a, t sketch.Counter) int {
		return cmp.Or(cmp.Compare(a.Count, t.Count), cmp.Compare(a.Item, t.Item))
	})
	return i
}

// heavy lists every counter in Heavy's order: count descending, item
// ascending.
func (r *refSpaceSaving) heavy() []sketch.Counter {
	out := slices.Clone(r.ord)
	slices.SortFunc(out, func(a, b sketch.Counter) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Item, b.Item))
	})
	return out
}

// BenchmarkSketchHeavy measures extracting the ranked heavy list into a
// reused buffer: a sort of every tracked counter, for a caller that wants
// a node's top k in order. items.Step is not one (it reads Tracked, which
// does not sort).
func BenchmarkSketchHeavy(b *testing.B) {
	trace := sketchTrace(1 << 14)
	for _, s := range sketchKinds() {
		b.Run(s.name, func(b *testing.B) {
			sum := s.mk()
			for _, it := range trace {
				sum.Observe(it, 1)
			}
			buf := make([]sketch.Counter, 0, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = sum.Heavy(128, buf[:0])
				if len(buf) == 0 {
					b.Fatal("empty heavy list")
				}
			}
		})
	}
}

// BenchmarkItemsStep measures one committed step of the item-monitoring
// layer end to end — the events' Observes, the pass over every node's
// tracked counters, and the inner monitor's filter protocol — with the
// per-step event batches pre-generated outside the measurement. Two
// operating points, both 8 nodes, k=8, space-saving c=128: the documented
// one (256 items, 1000 events a step) and the repository benchmark's
// items-zipf (4096 items, 2048 events a step). Either fails if a step
// allocates (items' TestStepAllocs counts mallocs exactly).
func BenchmarkItemsStep(b *testing.B) {
	for _, pt := range []struct {
		name             string
		universe, events int
	}{
		{"items=256", 256, 1000},
		{"items=4096", 4096, 2048},
	} {
		b.Run(pt.name, func(b *testing.B) {
			const nodes, k = 8, 8
			mon, err := items.New(items.Config{
				Nodes: nodes, Items: pt.universe, K: k,
				Epsilon: topk.MustEpsilon(1, 8), Capacity: 128, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			gen := istream.NewZipf(nodes, pt.universe, pt.events, 1.1, 13)
			const pregen = 64
			batches := make([][]istream.Event, pregen)
			for t := range batches {
				batches[t] = gen.Next(t, nil)
			}
			step := func(i int) {
				for _, e := range batches[i%pregen] {
					if err := mon.Observe(e.Node, e.Item, e.Count); err != nil {
						b.Fatal(err)
					}
				}
				if err := mon.Step(); err != nil {
					b.Fatal(err)
				}
			}
			// Long enough that the inner monitor has opened epochs and its
			// buffers have reached their working size.
			i := 0
			for ; i < 512; i++ {
				step(i)
			}
			if avg := testing.AllocsPerRun(64, func() { step(i); i++ }); avg != 0 {
				b.Fatalf("a step allocates %.1f times, want 0", avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				step(i + n)
			}
		})
	}
}

// BenchmarkFindMax measures Lemma 2.6's protocol end to end. Every node
// matches the first sweep of a run, so its MaxFindInit copies all n ids
// and the compaction that applies its first raise visits all n nodes, the
// floor; the rest of the time must not grow faster than that (n = 16384 is
// the load batch of the embed-quiet-wide workload).
func BenchmarkFindMax(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := lockstep.New(n, 1)
			vals := make([]int64, n)
			r := rngx.New(9)
			for i := range vals {
				vals[i] = r.Int63n(1 << 30)
			}
			e.Advance(vals)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := protocol.FindMax(e, true); !ok {
					b.Fatal("no max")
				}
			}
		})
	}
}

// BenchmarkLiveGrain justifies live's parallelGrain, the price in node
// visits below which a call runs on the caller instead of waking the
// workers: protocol.FindMax on live × 2 shards with every call through the
// workers (grain 0), every call on the caller (grain max), and the
// constant. A max-find is about log n sweeps over an active set that each
// raise halves; its first call (MaxFindInit, a copy of the ids) is priced
// n/8, and each sweep's Resolve the active lists it compacts, so a run
// starts above the grain at large n, crosses it on the way down, and never
// reaches it at small n. µs per FindMax on a 2-core container, with a
// raise applied by the next sweep's compaction (median of 8 runs, each the
// least of 5 rounds):
//
//	n        workers   caller   default (32768)
//	1024        15.3      5.8      5.4
//	16384       70.5     51.0     49.2
//	262144    1924     2759     1739
//
// Below n = 32768 default and caller run the same calls, so the gap
// between them there is the noise of a shared machine. At 2¹⁸ the
// compactions are memory-bound and the workers pay for their wake-up down
// to about 32768 visits: with a grain of 65536 the default read 1960 µs
// against the workers' 1698 in 8 other runs and failed the check at 2¹⁸ in
// 4 of them, with 32768 in none of these 8.
//
// A fourth timed row, n=…/lockstep, runs the same FindMax on lockstep.New(n,
// 1), which puts the live engine beside the one-shard inline engine at each
// size. It takes no part in the check.
//
// After the timed rows of an n the benchmark compares the three dispatches
// on identical work — each engine Reset to the same seed, so every FindMax
// draws the same sender ranks — in five rounds that each run all three in
// turn. Each round divides the default's time by the better pure
// dispatch's time in that same round, and the benchmark fails if the
// median of the five ratios exceeds 1.15: the default is more than 15 %
// slower, and the constant has stopped fitting the machine. A round's
// three timings share the machine's state of the moment, so the ratio
// cancels the shared machine's swings between rounds, which below
// n = 32768, where the default and the caller run the same calls, are all
// a comparison there sees. With one schedulable CPU no grain fits (a worker
// cannot run beside the server) and the comparison is skipped.
func BenchmarkLiveGrain(b *testing.B) {
	for _, n := range []int{1024, 16384, 262144} {
		benchLiveGrainAt(b, n)
	}
}

// benchLiveGrainAt is BenchmarkLiveGrain at one n: three live engines and a
// lockstep one, their timed rows, the comparison, and the engines' Close.
func benchLiveGrainAt(b *testing.B, n int) {
	dispatches := []struct {
		name string
		opts []live.Option
	}{
		{"workers", []live.Option{live.WithGrain(0)}},
		{"caller", []live.Option{live.WithGrain(math.MaxInt)}},
		{"default", nil},
	}
	const workers, caller, dflt = 0, 1, 2
	vals := make([]int64, n)
	r := rngx.New(9)
	for i := range vals {
		vals[i] = r.Int63n(1 << 30)
	}
	// load rewinds an engine to the common start: same seed, same values,
	// installed before anything is timed.
	load := func(e cluster.Engine) {
		e.Reset(1)
		e.Advance(vals)
		e.Probe(0)
	}
	findMax := func(b *testing.B, e cluster.Engine) {
		if _, ok := protocol.FindMax(e, true); !ok {
			b.Fatal("no max")
		}
	}
	timed := func(name string, e cluster.Engine) {
		b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
			load(e)
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				findMax(b, e)
			}
		})
	}
	engs := make([]*live.Cluster, len(dispatches))
	for i, d := range dispatches {
		engs[i] = live.New(n, 1, append(d.opts, live.WithShards(2))...)
		defer engs[i].Close()
		timed(d.name, engs[i])
	}
	timed("lockstep", lockstep.New(n, 1))
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	const rounds = 5
	// FindMax runs per dispatch and round: 400 at 1024 and 25 at 16384
	// (2-4 ms), 8 at 2¹⁸ (about 10 ms), where two were one noisy FindMax
	// from failing the check.
	iters := max(8, 400*1024/n)
	var ratios [rounds]float64 // per round: default over the better pure dispatch
	for round := range ratios {
		var took [3]time.Duration
		for i, e := range engs {
			load(e)
			t0 := time.Now()
			for j := 0; j < iters; j++ {
				findMax(b, e)
			}
			took[i] = time.Since(t0)
		}
		ratios[round] = float64(took[dflt]) / float64(min(took[workers], took[caller]))
	}
	slices.Sort(ratios[:])
	b.Logf("n=%d, %d FindMax: default over the better pure dispatch, per round %.2f", n, iters, ratios)
	if med := ratios[rounds/2]; med > 1.15 {
		b.Fatalf("n=%d: default dispatch at %.2fx the better pure dispatch in the median round, more than 15%% over",
			n, med)
	}
}

// BenchmarkEpochOpen measures the probe every epoch of every monitor opens
// with — TopM(k+1): one max-find from nothing, then k max-finds seeded from
// the reports the probe has read — in the shape the embed-churn workload
// has: n = 1024 values inside one power-of-two bucket, where value routing
// prunes nothing, so each seeded Init takes the pass over the rows and the
// max-find active list does the work. Lockstep and live × 2 shards; the
// probe goes into the caller's buffer (its first call grows it to 2(k+1)
// reports, the seen list's room), and an iteration that allocates fails
// the benchmark. Medians of 5 alternating rounds on a 2-core container:
// 34.8 µs on lockstep and 36.2 µs on live, against 39.8 and 39.7 µs with
// k+1 unseeded FindMax runs (0.07–0.09 and 0.08–0.10 ms when Init wrote
// every row and a raise compacted at once; 0.20 and 0.20–0.25 ms when
// every matcher drew a coin per round). Every call is below the parallel
// grain and runs on the caller, so what live pays over lockstep is
// per-call dispatch (0.60 ms when each call woke the workers).
func BenchmarkEpochOpen(b *testing.B) {
	const n, k = 1024, 8
	engines := []struct {
		name string
		mk   func() (cluster.Engine, func())
	}{
		{"lockstep", func() (cluster.Engine, func()) { return lockstep.New(n, 1), func() {} }},
		{"live/m=2", func() (cluster.Engine, func()) {
			e := live.New(n, 1, live.WithShards(2))
			return e, e.Close
		}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			e, done := eng.mk()
			defer done()
			vals := make([]int64, n)
			r := rngx.New(9)
			for i := range vals {
				vals[i] = 1<<20 + r.Int63n(1<<20) // all in bucket 21
			}
			e.Advance(vals)
			probe := make([]wire.Report, 0, k+1)
			open := func() {
				if probe = protocol.TopM(e, k+1, probe); len(probe) != k+1 {
					b.Fatalf("probe returned %d reports, want %d", len(probe), k+1)
				}
			}
			open()
			if avg := testing.AllocsPerRun(10, open); avg != 0 {
				b.Fatalf("an epoch opening allocates %.1f times, want 0", avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				open()
			}
		})
	}
}

// BenchmarkMonitorStep measures the steady-state per-step cost of each
// monitor on a moderately active workload (n=64, k=8). The step vectors are
// pre-generated outside the timed loop, so the measurement is the engine +
// monitor cost — the dense Advance included: every node of the drifting
// walk moves every step, so it installs n values and is part of the number,
// not scaffolding around it (BenchmarkSparseStep has the delta path, where
// a step installs its dirty set). 0 allocs/op is the enforced budget.
func BenchmarkMonitorStep(b *testing.B) {
	const n, k = 64, 8
	const pregen = 1024
	e := eps.MustNew(1, 8)
	for _, name := range []string{"exact-mid", "topk", "approx", "half-eps", "naive"} {
		algo, err := topk.ParseAlgorithm(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			gen := stream.NewWalk(n, 100000, 500, 1<<24, 13)
			steps := make([][]int64, pregen)
			for t := range steps {
				steps[t] = gen.Next(t)
			}
			eng := lockstep.New(n, 5)
			mon := algo.NewMonitor(eng, k, e)
			eng.Advance(steps[0])
			mon.Start()
			eng.EndStep()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Advance(steps[(i+1)%pregen])
				mon.HandleStep()
				eng.EndStep()
			}
		})
	}
}

// BenchmarkFacadePush measures one pushed time step through the PUBLIC
// topk facade (n=64, k=8, drifting walk batched as one UpdateBatch per
// step) on both engines — the embedder-visible form of
// BenchmarkMonitorStep. 0 allocs/op is the enforced budget
// (topk's TestFacadeStepAllocs).
func BenchmarkFacadePush(b *testing.B) {
	const n, k, pregen = 64, 8, 1024
	gen := stream.NewWalk(n, 100000, 500, 1<<24, 13)
	batches := make([][]topk.Update, pregen)
	for t := range batches {
		vals := gen.Next(t)
		batches[t] = make([]topk.Update, n)
		for i, v := range vals {
			batches[t][i] = topk.Update{Node: i, Value: v}
		}
	}
	engines := []struct {
		name string
		opts []topk.Option
	}{
		{"lockstep", nil},
		{"live", []topk.Option{topk.WithEngine(topk.Live)}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			opts := append([]topk.Option{topk.WithNodes(n), topk.WithSeed(5)}, eng.opts...)
			m, err := topk.New(k, topk.MustEpsilon(1, 8), opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			for i := 0; i < 64; i++ {
				if err := m.UpdateBatch(batches[i%pregen]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.UpdateBatch(batches[i%pregen]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseStep measures what one committed step costs when one node
// moved: k=8 static leaders far above n-8 others, each step pushing one
// random other node a few units — the protocol stays silent, so the step is
// staging, the delta install (Engine.AdvanceDirty) and the quiet violation
// sweep. None of those may depend on n: ns/op has to stay within 2× from
// n=1024 to n=131072 (cache misses on the larger arrays are what is left),
// at 0 allocs/op. On live the step is two calls of about one visit each,
// the one-id delta and the sweep's round 0, both run on the caller:
// ≈0.2–0.5 µs against lockstep's 0.1–0.15 on a 2-core container (0.9–1.0 µs
// when the step woke a worker).
// `go run ./benchmark -workload embed-quiet-wide` is the end-to-end form.
func BenchmarkSparseStep(b *testing.B) {
	const k, pregen = 8, 4096
	engines := []struct {
		name string
		opts []topk.Option
	}{
		{"lockstep", nil},
		{"live", []topk.Option{topk.WithEngine(topk.Live), topk.WithShards(2)}},
	}
	for _, eng := range engines {
		for _, n := range []int{1024, 16384, 131072} {
			b.Run(fmt.Sprintf("%s/n=%d", eng.name, n), func(b *testing.B) {
				r := rngx.New(17)
				load := make([]topk.Update, n)
				for i := range load {
					load[i] = topk.Update{Node: i, Value: 1e6 + r.Int63n(1e6)}
					if i < k {
						load[i].Value += 2e6
					}
				}
				moves := make([][]topk.Update, pregen)
				for i := range moves {
					u := load[k+r.Intn(n-k)]
					u.Value += r.Int63n(101) - 50
					moves[i] = []topk.Update{u}
				}
				opts := append([]topk.Option{topk.WithNodes(n), topk.WithSeed(5)}, eng.opts...)
				m, err := topk.New(k, topk.MustEpsilon(1, 8), opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				if err := m.UpdateBatch(load); err != nil {
					b.Fatal(err)
				}
				before := m.Cost().Messages
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.UpdateBatch(moves[i%pregen]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if spent := m.Cost().Messages - before; spent != 0 {
					b.Fatalf("the quiet steps spent %d messages", spent)
				}
			})
		}
	}
}

// BenchmarkWideChurn is embed-churn's walk at the widths where a step's
// O(n) parts would show: 32 contenders on phase-shifted triangle waves
// trade top-8 places every few steps, 16 random other nodes take a ±50
// move each step, k = 8, ε = 1/8, Approx — at n = 2¹⁶ and 2¹⁸, on lockstep
// and on live with 2 shards. A step's sweeps cost their matchers once and
// their senders, a max-find writes no row, and a seeded max-find's Init is
// mostly routed through the value index, whose top bucket (2²⁰ and up)
// holds contenders only; an epoch opening's filter rule costs the few
// nodes it retags and the contenders above the rest filter, not n. What
// grows with n is the first max-find's first compaction of its active
// list (every node, after an Init that copied the ids), most of a step at
// 2¹⁸, and the Init's copy. The contenders are always at most 32. Medians
// of 5 alternating rounds on a 2-core container, rules on tag classes
// against a rule pass over every row: lockstep 26 against 107 µs at 2¹⁶
// and 0.12 against 0.70 ms at 2¹⁸, live 30 against 94 µs and 0.09 against
// 0.43 ms (with the row pass, seeded probes against k+1 FindMax runs had
// read 104 against 191 µs and 0.48 against 1.10 ms on lockstep). Ten pre-generated wave
// periods of batches are cycled. After the warm-up the live run's TopK and Cost must
// equal the lockstep run's of the same n and seed, so `-benchtime=1x`
// checks live = lockstep at the two sizes where Init and the compaction
// cross live's parallel grain. A step that allocates after the warm-up
// fails the benchmark, so it holds at 0 allocs/op too.
func BenchmarkWideChurn(b *testing.B) {
	const k, contenders, noise, period, steps = 8, 32, 16, 200, 2000
	wave := func(p int) int64 { // triangle between 1e6 and 2e6
		if p > period/2 {
			p = period - p
		}
		return 1e6 + 1e6*int64(p)/(period/2)
	}
	engines := []struct {
		name string
		opts []topk.Option
	}{
		{"lockstep", nil},
		{"live/m=2", []topk.Option{topk.WithEngine(topk.Live), topk.WithShards(2)}},
	}
	for _, n := range []int{1 << 16, 1 << 18} {
		r := rngx.New(23)
		vals := make([]int64, n)
		load := make([]topk.Update, n)
		for i := range load {
			vals[i] = 1e5 + r.Int63n(8e5+1)
			if i < contenders {
				vals[i] = wave(i * period / contenders)
			}
			load[i] = topk.Update{Node: i, Value: vals[i]}
		}
		batches := make([][]topk.Update, steps)
		for s := range batches {
			batch := make([]topk.Update, 0, contenders+noise)
			for i := range contenders {
				batch = append(batch, topk.Update{Node: i, Value: wave((i*period/contenders + s + 1) % period)})
			}
			for range noise {
				i := contenders + r.Intn(n-contenders)
				vals[i] = max(0, vals[i]+r.Int63n(101)-50)
				batch = append(batch, topk.Update{Node: i, Value: vals[i]})
			}
			batches[s] = batch
		}
		// warm builds the monitor on the given engine, loads it and runs the
		// warm-up; step runs the next batch.
		warm := func(b *testing.B, engOpts []topk.Option) (m *topk.Monitor, step func()) {
			opts := append([]topk.Option{topk.WithNodes(n), topk.WithSeed(5)}, engOpts...)
			m, err := topk.New(k, topk.MustEpsilon(1, 8), opts...)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.UpdateBatch(load); err != nil {
				b.Fatal(err)
			}
			i := 0
			step = func() {
				if err := m.UpdateBatch(batches[i%steps]); err != nil {
					b.Fatal(err)
				}
				i++
			}
			epochs0 := m.Epochs()
			for range 2 * period {
				step()
			}
			if m.Epochs() == epochs0 {
				b.Fatal("the warm-up opened no epoch: the trace does not churn")
			}
			return m, step
		}
		// The lockstep run's answer and bill after the warm-up, which the
		// live run must reproduce; a live run without a lockstep run before
		// it (-bench selecting live alone) warms up its own.
		var wantTop []int
		var wantCost topk.Cost
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/n=%d", eng.name, n), func(b *testing.B) {
				m, step := warm(b, eng.opts)
				defer m.Close()
				switch {
				case eng.opts == nil:
					wantTop, wantCost = m.TopK(nil), m.Cost()
				case wantTop == nil:
					ref, _ := warm(b, nil)
					wantTop, wantCost = ref.TopK(nil), ref.Cost()
					ref.Close()
					fallthrough
				default:
					if top, cost := m.TopK(nil), m.Cost(); !slices.Equal(top, wantTop) || cost != wantCost {
						b.Fatalf("after the warm-up %s answers %v at %+v, lockstep %v at %+v", eng.name, top, cost, wantTop, wantCost)
					}
				}
				if avg := testing.AllocsPerRun(period, step); avg != 0 {
					b.Fatalf("a churn step allocates %.2f times, want 0", avg)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					step()
				}
			})
		}
	}
}

// BenchmarkColdLoad measures a cold start through the public facade: the
// paper's server must learn every node's value before it opens the first
// epoch, so a monitor starts with one full-vector UpdateBatch. The new rows
// time topk.New, that load (which opens the first epoch), TopK and Close —
// what the repository benchmark's recovery_s times for an embedder; the
// reset rows time Reset(seed) and the same load and TopK on one monitor,
// the checkpoint path that keeps every buffer. k = 8, ε = 1/8, Approx, at
// n = 2¹⁰, 2¹⁴ and 2¹⁸ on lockstep and on live with 2 shards. Values are
// uniform in [10⁵, 9·10⁵] with 32 contenders in [10⁶, 2·10⁶], so the load
// moves every node about 17 value buckets up from 0: the value index takes
// it as one batch past its budget, one counting regroup per shard
// (vindex.Index.Settle). Both rows of live must answer the lockstep load's
// TopK and Cost, or the benchmark fails.
func BenchmarkColdLoad(b *testing.B) {
	const k, contenders, seed = 8, 32, 5
	engines := []struct {
		name string
		opts []topk.Option
	}{
		{"lockstep", nil},
		{"live/m=2", []topk.Option{topk.WithEngine(topk.Live), topk.WithShards(2)}},
	}
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		r := rngx.New(31)
		load := make([]topk.Update, n)
		for i := range load {
			v := 1e5 + r.Int63n(8e5+1)
			if i < contenders {
				v = 1e6 + r.Int63n(1e6+1)
			}
			load[i] = topk.Update{Node: i, Value: v}
		}
		// cold builds a monitor and loads it; the lockstep engine's answer
		// and bill are what every live row must reproduce.
		cold := func(b *testing.B, engOpts []topk.Option) *topk.Monitor {
			opts := append([]topk.Option{topk.WithNodes(n), topk.WithSeed(seed)}, engOpts...)
			m, err := topk.New(k, topk.MustEpsilon(1, 8), opts...)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.UpdateBatch(load); err != nil {
				b.Fatal(err)
			}
			return m
		}
		ref := cold(b, nil)
		wantTop, wantCost := ref.TopK(nil), ref.Cost()
		ref.Close()
		same := func(b *testing.B, name string, m *topk.Monitor) {
			if top, cost := m.TopK(nil), m.Cost(); !slices.Equal(top, wantTop) || cost != wantCost {
				b.Fatalf("%s answers %v at %+v after the load, lockstep %v at %+v", name, top, cost, wantTop, wantCost)
			}
		}
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/n=%d/new", eng.name, n), func(b *testing.B) {
				m := cold(b, eng.opts)
				same(b, eng.name, m)
				m.Close()
				top := make([]int, 0, k)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					m := cold(b, eng.opts)
					top = m.TopK(top)
					m.Close()
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/reset", eng.name, n), func(b *testing.B) {
				m := cold(b, eng.opts)
				defer m.Close()
				top := make([]int, 0, k)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if err := m.Reset(seed); err != nil {
						b.Fatal(err)
					}
					if err := m.UpdateBatch(load); err != nil {
						b.Fatal(err)
					}
					top = m.TopK(top)
				}
				b.StopTimer()
				same(b, eng.name+" after Reset", m)
			})
		}
	}
}

// BenchmarkOracle measures the steady-state per-step ground-truth
// computation (reused Scratch — the path sim.Run takes; 0 allocs/op).
func BenchmarkOracle(b *testing.B) {
	const n, k = 1024, 16
	vals := make([]int64, n)
	r := rngx.New(3)
	for i := range vals {
		vals[i] = r.Int63n(1 << 30)
	}
	e := eps.MustNew(1, 8)
	var sc oracle.Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := oracle.ComputeInto(&sc, vals, k, e)
		if tr.VK == 0 {
			b.Fatal("bogus truth")
		}
	}
}

// BenchmarkOracleFresh tracks the allocating compatibility wrapper.
func BenchmarkOracleFresh(b *testing.B) {
	const n, k = 1024, 16
	vals := make([]int64, n)
	r := rngx.New(3)
	for i := range vals {
		vals[i] = r.Int63n(1 << 30)
	}
	e := eps.MustNew(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := oracle.Compute(vals, k, e)
		if tr.VK == 0 {
			b.Fatal("bogus truth")
		}
	}
}

// BenchmarkOfflineSolve measures the offline optimum segmentation.
func BenchmarkOfflineSolve(b *testing.B) {
	const n, k, T = 64, 8, 500
	gen := stream.NewWalk(n, 100000, 800, 1<<24, 21)
	matrix := make([][]int64, T)
	for t := range matrix {
		matrix[t] = gen.Next(t)
	}
	e := eps.MustNew(1, 8)
	inst, err := offline.NewInstance(matrix, k, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := inst.Solve()
		if len(res.Segments) == 0 {
			b.Fatal("no segments")
		}
	}
}

// BenchmarkEndToEndRun measures a complete simulated run (400 steps, n=32)
// through the sim harness including validation.
func BenchmarkEndToEndRun(b *testing.B) {
	const n, k, steps = 32, 4, 400
	e := eps.MustNew(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			K: k, Eps: e, Steps: steps, Seed: uint64(i),
			Gen: stream.NewLoads(n, 1000, 40, 0.01, 4000, 1<<20, uint64(i)+7),
			NewMonitor: func(c cluster.Cluster) protocol.Monitor {
				return protocol.NewApprox(c, k, e)
			},
			Validate: sim.ValidateEps,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
