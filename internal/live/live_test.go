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

// TestLiveStepAllocs enforces the live engine's allocation budget: after
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
		for _, d := range Dispatches {
			t.Run(fmt.Sprintf("m=%d%s", shards, d.Suffix), func(t *testing.T) {
				eng := New(n, 5, append(d.Opts, WithShards(shards))...)
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
		if got := c.d.m; got != cs.want {
			t.Errorf("n=%d WithShards(%d): %d shards, want %d", cs.n, cs.opt, got, cs.want)
		}
		next := 0
		for w, sh := range c.d.shards {
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
				if int(c.d.workerOf[id]) != w {
					t.Errorf("workerOf[%d] = %d, want %d", id, c.d.workerOf[id], w)
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

// TestDeltaWakesOnlyOwningShards pins what AdvanceDirty addresses when it
// goes to the workers: nobody for a heartbeat, and otherwise only the shards
// owning one of its ids — never a broadcast. The dense form addresses every
// shard.
func TestDeltaWakesOnlyOwningShards(t *testing.T) {
	c := New(8, 9, WithShards(4), WithGrain(0)) // shards {0,1} {2,3} {4,5} {6,7}
	defer c.Close()
	vals := make([]int64, 8)
	wakes := func(f func()) int64 {
		w0 := c.d.wakes
		f()
		return c.d.wakes - w0
	}

	if w := wakes(func() { c.AdvanceDirty(vals, nil) }); w != 0 {
		t.Fatalf("heartbeat woke %d workers, want 0", w)
	}

	vals[5], vals[4], vals[0] = 7, 3, 9
	if w := wakes(func() { c.AdvanceDirty(vals, []int{5, 4, 0}) }); w != 2 {
		t.Fatalf("delta {5,4,0} woke %d workers, want the 2 owning shards 0 and 2", w)
	}
	if got := valuesOf(c); !reflect.DeepEqual(got, vals) {
		t.Fatalf("values %v, want %v", got, vals)
	}

	if w := wakes(func() { c.Advance(vals) }); w != 4 {
		t.Fatalf("dense Advance woke %d workers, want all 4", w)
	}
}

// TestSweepBarriers pins what a sweep costs in node rounds, with every
// call forced through the workers: a sweep no node matches is ONE round —
// round 0 wakes each worker once, brings back zero matchers, and the other
// γ rounds are billed without being run; and once round 0 has resolved the
// matchers, the later rounds wake nobody: the server draws their sender
// ranks, and the caller reads the senders' reports from the parked shards.
func TestSweepBarriers(t *testing.T) {
	const n, m = 64, 4                          // γ = 6
	c := New(n, 9, WithShards(m), WithGrain(0)) // shards of 16
	defer c.Close()
	wakes := func(f func()) int64 {
		w0 := c.d.wakes
		f()
		return c.d.wakes - w0
	}

	c.Advance(make([]int64, n))
	if w := wakes(func() {
		if _, ok := c.DetectViolation(); ok {
			t.Fatal("violation on an all-admitting cluster")
		}
	}); w != m {
		t.Errorf("silent sweep woke %d workers, want each of the %d once", w, m)
	}
	c.EndStep()
	if got := c.Counters().MaxRoundsPerStep(); got != 7 {
		t.Errorf("silent sweep billed %d rounds, want γ+1 = 7", got)
	}

	// One violator, on shard 2: Resolve wakes everybody and counts it,
	// and its report is read on the caller.
	c.SetFilter(37, filter.Make(5, 10))
	if w := wakes(func() {
		if got := c.d.Resolve(wire.Violating()); got != 1 {
			t.Errorf("Resolve counts %d matchers, want the one violator", got)
		}
	}); w != m {
		t.Errorf("round 0 woke %d workers, want all %d", w, m)
	}
	if w := wakes(func() {
		if got := c.d.Senders(nil, []int32{0}); len(got) != 1 || got[0].ID != 37 {
			t.Errorf("Senders at rank 0 reports %v, want node 37", got)
		}
	}); w != 0 {
		t.Errorf("Senders woke %d workers, want none", w)
	}

	var senders []wire.Report
	if w := wakes(func() { senders = c.Sweep(wire.Violating()) }); w != m {
		t.Errorf("one-violator sweep woke %d workers, want %d for round 0 and none for the rounds after it", w, m)
	}
	if len(senders) != 1 || senders[0].ID != 37 {
		t.Fatalf("senders %v, want node 37", senders)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	c := New(2, 7)
	c.Close()
	c.Close()
}
