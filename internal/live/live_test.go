package live

import (
	"fmt"
	"reflect"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/nodecore"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// Interface compliance.
var (
	_ cluster.Engine = (*Cluster)(nil)
	_ cluster.Engine = (*lockstep.Engine)(nil)
)

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

// dispatches names the two executors of a flush for the suites that must
// hold under both. The default grain runs every flush of a conformance-sized
// engine on the caller; grain 0 hands every flush to the worker goroutines.
var dispatches = []struct {
	suffix string
	opts   []Option
}{
	{"", nil},
	{"/workers", []Option{WithGrain(0)}},
}

func TestBasicRoundTrip(t *testing.T) {
	c := New(4, 1)
	defer c.Close()
	c.Advance([]int64{10, 20, 30, 40})
	if got := valuesOf(c); !reflect.DeepEqual(got, []int64{10, 20, 30, 40}) {
		t.Fatalf("Values = %v", got)
	}
	rep := c.Probe(2)
	if rep.Value != 30 {
		t.Errorf("Probe = %+v", rep)
	}
	c.SetTagFilter(1, wire.TagOut, filter.AtLeast(15))
	if tags := tagsOf(c); tags[1] != wire.TagOut {
		t.Errorf("Tags = %v", tags)
	}
	reps := c.Collect(wire.InRange(25, 45))
	if len(reps) != 2 || reps[0].ID != 2 || reps[1].ID != 3 {
		t.Errorf("Collect = %v", reps)
	}
}

func TestSweepDetectsViolations(t *testing.T) {
	c := New(8, 2)
	defer c.Close()
	vals := make([]int64, 8)
	for i := range vals {
		vals[i] = 100
	}
	c.Advance(vals)
	if got := c.Sweep(wire.Violating()); got != nil {
		t.Fatalf("no violations expected, got %v", got)
	}
	c.SetFilter(5, filter.Make(0, 50))
	rep, ok := c.DetectViolation()
	if !ok || rep.ID != 5 || rep.Dir != filter.DirUp {
		t.Fatalf("DetectViolation = %+v ok=%v", rep, ok)
	}
}

func TestFindMaxOnLiveEngine(t *testing.T) {
	c := New(32, 3)
	defer c.Close()
	vals := make([]int64, 32)
	r := rngx.New(9)
	for i := range vals {
		vals[i] = r.Int63n(1 << 20)
	}
	vals[17] = 1 << 21 // clear max
	c.Advance(vals)
	rep, ok := protocol.FindMax(c, true)
	if !ok || rep.ID != 17 {
		t.Fatalf("FindMax = %+v ok=%v", rep, ok)
	}
}

// TestLockstepEquivalence is the strongest integration test in the suite:
// the same seed, workload and monitor on both engines must produce
// identical outputs AND identical message counters, proving the two
// engines implement the same model.
func TestLockstepEquivalence(t *testing.T) {
	const n, k, steps = 12, 3, 250
	e := eps.MustNew(1, 5)
	type mk struct {
		name string
		make func(c cluster.Cluster) protocol.Monitor
	}
	monitors := []mk{
		{"exact-mid", func(c cluster.Cluster) protocol.Monitor { return protocol.NewExactMid(c, k) }},
		{"topk", func(c cluster.Cluster) protocol.Monitor { return protocol.NewTopKProto(c, k, e) }},
		{"approx", func(c cluster.Cluster) protocol.Monitor { return protocol.NewApprox(c, k, e) }},
		{"half-eps", func(c cluster.Cluster) protocol.Monitor { return protocol.NewHalfEps(c, k, e) }},
	}
	// Shard counts bracket the interesting layouts: one worker for all
	// nodes, an uneven multi-shard split, and one goroutine per node. The
	// live engine must match lockstep bit for bit in every one.
	for _, m := range monitors {
		for _, shards := range []int{1, 5, n} {
			for _, d := range dispatches {
				t.Run(fmt.Sprintf("%s/m=%d%s", m.name, shards, d.suffix), func(t *testing.T) {
					// Generate the trace once so both engines see identical data.
					gen := stream.NewWalk(n, 2000, 120, 1<<20, 5)
					trace := make([][]int64, steps)
					for i := range trace {
						trace[i] = gen.Next(i)
					}

					runOn := func(eng cluster.Engine) ([]int, int64, map[string]int64) {
						mon := m.make(eng)
						for ti, vals := range trace {
							eng.Advance(vals)
							if ti == 0 {
								mon.Start()
							} else {
								mon.HandleStep()
							}
							eng.EndStep()
						}
						snap := eng.Counters().Snapshot()
						return mon.Output(), snap.Total(), snap.ByKind
					}

					ls := lockstep.New(n, 42)
					lv := New(n, 42, append(d.opts, WithShards(shards))...)
					defer lv.Close()

					outA, totalA, kindsA := runOn(ls)
					outB, totalB, kindsB := runOn(lv)

					if !reflect.DeepEqual(outA, outB) {
						t.Errorf("outputs diverge: lockstep=%v live=%v", outA, outB)
					}
					if totalA != totalB {
						t.Errorf("totals diverge: lockstep=%d live=%d", totalA, totalB)
					}
					if !reflect.DeepEqual(kindsA, kindsB) {
						t.Errorf("kind counters diverge:\nlockstep=%v\nlive=%v", kindsA, kindsB)
					}
				})
			}
		}
	}
}

// TestLockstepEquivalenceLargeN raises the cross-engine equivalence proof
// to n = 10⁴ nodes: with the batched flush pipeline the live engine must
// still reproduce the lockstep run's outputs and counters bit for bit at a
// scale where any ordering or lost-directive bug in the batch delivery
// would surface.
func TestLockstepEquivalenceLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n equivalence is CI-sized; skipped under -short")
	}
	const n, k, steps = 10000, 8, 10
	e := eps.MustNew(1, 8)
	gen := stream.NewWalk(n, 100000, 150, 1<<24, 17)
	trace := make([][]int64, steps)
	for i := range trace {
		trace[i] = gen.Next(i)
	}

	runOn := func(eng cluster.Engine) ([]int, int64, map[string]int64) {
		mon := protocol.NewApprox(eng, k, e)
		for ti, vals := range trace {
			eng.Advance(vals)
			if ti == 0 {
				mon.Start()
			} else {
				mon.HandleStep()
			}
			eng.EndStep()
		}
		snap := eng.Counters().Snapshot()
		return mon.Output(), snap.Total(), snap.ByKind
	}

	// Worker shards (m ≪ n) are what makes this scale bearable: one quiet
	// step wakes 8 workers instead of 10⁴ goroutines per barrier round — or,
	// at the default grain, nobody: only the flushes carrying a dense
	// Advance or a whole-cluster broadcast are large enough for the workers.
	outA, totalA, kindsA := runOn(lockstep.New(n, 271828))
	for _, d := range dispatches {
		t.Run("m=8"+d.suffix, func(t *testing.T) {
			lv := New(n, 271828, append(d.opts, WithShards(8))...)
			defer lv.Close()
			outB, totalB, kindsB := runOn(lv)

			if !reflect.DeepEqual(outA, outB) {
				t.Errorf("outputs diverge: lockstep=%v live=%v", outA, outB)
			}
			if totalA != totalB {
				t.Errorf("totals diverge: lockstep=%d live=%d", totalA, totalB)
			}
			if !reflect.DeepEqual(kindsA, kindsB) {
				t.Errorf("kind counters diverge:\nlockstep=%v\nlive=%v", kindsA, kindsB)
			}
		})
	}
}

// TestLiveStepAllocs enforces the batched engine's allocation budget: after
// warm-up, a full monitored time step (Advance + HandleStep + EndStep) on
// the live engine allocates nothing — the property BenchmarkLiveStep
// tracks, asserted here so CI fails on regressions without running
// benchmarks.
func TestLiveStepAllocs(t *testing.T) {
	const n, k, pregen = 64, 8, 512
	e := eps.MustNew(1, 8)
	gen := stream.NewWalk(n, 100000, 500, 1<<24, 13)
	steps := make([][]int64, pregen)
	for ti := range steps {
		steps[ti] = gen.Next(ti)
	}
	// The budget must hold for every shard layout: worker-side buffers
	// (shard indexes, candidate scratch, report lists) count too, since
	// AllocsPerRun observes the whole process.
	for _, shards := range []int{1, 3} {
		for _, d := range dispatches {
			t.Run(fmt.Sprintf("m=%d%s", shards, d.suffix), func(t *testing.T) {
				eng := New(n, 5, append(d.opts, WithShards(shards))...)
				defer eng.Close()
				mon := protocol.NewApprox(eng, k, e)
				eng.Advance(steps[0])
				mon.Start()
				eng.EndStep()
				i := 0
				step := func() {
					eng.Advance(steps[(i+1)%pregen])
					mon.HandleStep()
					eng.EndStep()
					i++
				}
				for range 128 {
					step()
				}
				if avg := testing.AllocsPerRun(400, step); avg != 0 {
					t.Errorf("steady-state live step allocates %.2f times per step, want 0", avg)
				}
			})
		}
	}
}

// TestShardPartition pins the worker-shard layout contract: shards cover
// the id space contiguously in ascending order with near-equal sizes, the
// shard count clamps to [1, n], and every node is owned by exactly the
// worker its id maps to.
func TestShardPartition(t *testing.T) {
	cases := []struct {
		n, opt, want int
	}{
		{10, 3, 3}, // uneven split: sizes 4,3,3
		{10, 100, 10} /* clamp to n */, {10, 1, 1},
		{7, 7, 7}, // one goroutine per node
	}
	for _, cs := range cases {
		c := New(cs.n, 1, WithShards(cs.opt))
		if got := c.b.m; got != cs.want {
			t.Errorf("n=%d WithShards(%d): %d shards, want %d", cs.n, cs.opt, got, cs.want)
		}
		next := 0
		for w, sh := range c.b.shards {
			ids := sh.IDs()
			if base := int(ids[0]); base != next {
				t.Errorf("shard %d base = %d, want %d (contiguous ascending)", w, base, next)
			}
			if sh.Len() < cs.n/cs.want || sh.Len() > cs.n/cs.want+1 {
				t.Errorf("shard %d size = %d, want near-equal split of %d/%d", w, sh.Len(), cs.n, cs.want)
			}
			for i, id := range ids {
				if nd := sh.Node(int(id)); nd.ID != next+i {
					t.Errorf("shard %d node %d has id %d", w, i, nd.ID)
				}
				if int(c.b.workerOf[id]) != w {
					t.Errorf("workerOf[%d] = %d, want %d", id, c.b.workerOf[id], w)
				}
			}
			next += sh.Len()
		}
		if next != cs.n {
			t.Errorf("shards cover %d ids, want %d", next, cs.n)
		}
		c.Close()
	}
}

// TestDeltaWakesOnlyOwningShards pins what AdvanceDirty leaves for the
// next flush: nothing at all for a heartbeat, and otherwise one directive
// per run of same-shard ids that marks only the owning shards for wake-up —
// never a broadcast. The dense form is the same staging over every node:
// one directive per shard.
func TestDeltaWakesOnlyOwningShards(t *testing.T) {
	c := New(8, 9, WithShards(4)) // shards {0,1} {2,3} {4,5} {6,7}
	defer c.Close()
	vals := make([]int64, 8)

	c.AdvanceDirty(vals, nil)
	if len(c.b.pend) != 0 || len(c.b.touchedIDs) != 0 || c.b.allTouched {
		t.Fatalf("heartbeat staged %d directives, touched %v, broadcast %v", len(c.b.pend), c.b.touchedIDs, c.b.allTouched)
	}

	vals[5], vals[4], vals[0] = 7, 3, 9
	c.AdvanceDirty(vals, []int{5, 4, 0})
	if len(c.b.pend) != 2 || !reflect.DeepEqual(c.b.touchedIDs, []int{2, 0}) || c.b.allTouched {
		t.Fatalf("delta {5,4,0} staged %d directives, touched %v, broadcast %v; want 2, [2 0], false",
			len(c.b.pend), c.b.touchedIDs, c.b.allTouched)
	}
	if got := valuesOf(c); !reflect.DeepEqual(got, vals) {
		t.Fatalf("values %v, want %v", got, vals)
	}

	c.Advance(vals)
	if len(c.b.pend) != 4 || len(c.b.adv) != 8 || c.b.allTouched {
		t.Fatalf("dense Advance staged %d directives over %d observations, broadcast %v; want 4, 8, false",
			len(c.b.pend), len(c.b.adv), c.b.allTouched)
	}
}

// TestSweepBarriers pins what a sweep costs in barrier rounds: a sweep no
// node matches is ONE flush — round 0 brings back zero matchers and the
// other γ rounds are billed without being run — so a quiet step (Advance +
// DetectViolation) is one flush in all; and once round 0 has resolved the
// matchers, a later round wakes only the shards that hold one.
func TestSweepBarriers(t *testing.T) {
	const n = 64                  // γ = 6
	c := New(n, 9, WithShards(4)) // shards of 16
	defer c.Close()
	vals := make([]int64, n)

	c.Advance(vals)
	f0 := c.Flushes()
	if _, ok := c.DetectViolation(); ok {
		t.Fatal("violation on an all-admitting cluster")
	}
	c.EndStep()
	if got := c.Flushes() - f0; got != 1 {
		t.Errorf("quiet step ran %d barrier rounds, want 1", got)
	}
	if got := c.Counters().MaxRoundsPerStep(); got != 7 {
		t.Errorf("silent sweep billed %d rounds, want γ+1 = 7", got)
	}

	// One violator, on shard 2. Round 0 with probability 0: everybody
	// resolves, nobody sends.
	c.SetFilter(37, filter.Make(5, 10))
	c.b.push(directive{kind: dirExistRound, target: allNodes, pred: wire.Violating()})
	c.b.flush()
	c.b.push(directive{kind: dirExistRound, target: sweepers, round: 1})
	if !reflect.DeepEqual(c.b.touchedIDs, []int{2}) || c.b.allTouched {
		t.Fatalf("round 1 wakes shards %v (broadcast %v), want only the violator's shard 2", c.b.touchedIDs, c.b.allTouched)
	}
	c.b.flush()

	f0 = c.Flushes()
	senders := c.Sweep(wire.Violating())
	if len(senders) != 1 || senders[0].ID != 37 {
		t.Fatalf("senders %v, want node 37", senders)
	}
	if got := c.Flushes() - f0; got < 1 || got > 7 {
		t.Errorf("one-violator sweep ran %d barrier rounds, want one per round up to the terminating one", got)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	c := New(2, 7)
	c.Close()
	c.Close()
}
