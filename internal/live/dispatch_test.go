package live

import (
	"reflect"
	"testing"
	"time"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// TestQuietStepWakesNobody pins what the grain buys on the step most steps
// are: a few dozen nodes moved inside their filters, at an n where the
// workers used to be woken for it. The delta and the violation sweep's
// round 0, which finds no matcher, each run on the caller, and nothing is
// allocated.
func TestQuietStepWakesNobody(t *testing.T) {
	const n, m, moved = 16384, 4, 48
	c := New(n, 9, WithShards(m))
	defer c.Close()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1000 + i)
	}
	c.Advance(vals)
	if _, ok := c.DetectViolation(); ok {
		t.Fatal("violation on an all-admitting cluster")
	}
	dirty := make([]int, moved)
	for i := range dirty {
		dirty[i] = i * (n / moved) // every shard owns some
	}
	step := func() {
		for _, id := range dirty {
			vals[id] ^= 1
		}
		c.AdvanceDirty(vals, dirty)
		if _, ok := c.DetectViolation(); ok {
			t.Fatal("violation on an all-admitting cluster")
		}
		c.EndStep()
	}
	w0 := c.d.wakes
	step()
	if got := c.d.wakes - w0; got != 0 {
		t.Errorf("quiet step of %d moved nodes woke %d workers, want 0", moved, got)
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("quiet step allocates %.2f times, want 0", avg)
	}
	if got := valuesOf(c); !reflect.DeepEqual(got, vals) {
		t.Error("the caller-executed installs did not reach the nodes")
	}
}

// TestLargeFlushWakesWorkers is the other side: a call whose price reaches
// the grain is handed to every worker it addresses — and the boundary sits
// where the pricing says, one visit per observation, each call alone.
func TestLargeFlushWakesWorkers(t *testing.T) {
	const n, m = parallelGrain, 4 // shards of n/4
	c := New(n, 9, WithShards(m))
	defer c.Close()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	wakes := func(f func()) int64 {
		w0 := c.d.wakes
		f()
		return c.d.wakes - w0
	}

	if w := wakes(func() { c.Advance(vals) }); w != m {
		t.Errorf("dense Advance at n=%d woke %d workers, want all %d", n, w, m)
	}

	ids := make([]int, parallelGrain-1)
	for i := range ids {
		ids[i] = i
	}
	if w := wakes(func() { c.AdvanceDirty(vals, ids) }); w != 0 {
		t.Errorf("AdvanceDirty of %d ids woke %d workers, want 0", len(ids), w)
	}

	// parallelGrain ids, every one on shard 0 or 1.
	ids = make([]int, parallelGrain)
	for i := range ids {
		ids[i] = i % (n / 2)
	}
	if w := wakes(func() { c.AdvanceDirty(vals, ids) }); w != 2 {
		t.Errorf("AdvanceDirty of %d ids on shards 0 and 1 woke %d workers, want those 2", len(ids), w)
	}
	if got := valuesOf(c); !reflect.DeepEqual(got, vals) {
		t.Error("the worker-executed installs did not reach the nodes")
	}
}

// TestSmallRuleWakesNobody: a filter rule is priced at what it changes
// (nodecore.Shard.RuleVisits), not n. At n = 2·parallelGrain an epoch
// opening's rule — every tag retagged to rest, rest set below the few
// raised nodes, which become its violators — runs on the caller, and a
// rule whose walks would visit every node goes to every worker. Both leave
// the nodes a lockstep twin holds.
func TestSmallRuleWakesNobody(t *testing.T) {
	const n, m, raised = 2 * parallelGrain, 4, 32
	c := New(n, 9, WithShards(m))
	defer c.Close()
	ref := lockstep.New(n, 9)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1000 + i%1000)
		if i%(n/raised) == 0 {
			vals[i] = 1 << 20
		}
	}
	c.Advance(vals)
	ref.Advance(vals)
	for i := range 9 {
		c.SetTagFilter(i*1000, wire.Tag(i), filter.All)
		ref.SetTagFilter(i*1000, wire.Tag(i), filter.All)
	}
	open := new(wire.FilterRule)
	for tg := wire.Tag(0); tg < wire.NumTags; tg++ {
		open.WithRetag(tg, wire.TagRest)
	}
	open.With(wire.TagRest, filter.AtMost(1<<20-1))
	narrow := new(wire.FilterRule).With(wire.TagRest, filter.Make(1<<20, 1<<20))
	for _, r := range []struct {
		name  string
		rule  *wire.FilterRule
		wakes int64
	}{{"opening", open, 0}, {"narrowing every node", narrow, m}} {
		w0 := c.d.wakes
		c.BroadcastRule(r.rule)
		ref.BroadcastRule(r.rule)
		if got := c.d.wakes - w0; got != r.wakes {
			t.Errorf("%s rule woke %d workers, want %d", r.name, got, r.wakes)
		}
		if got, want := c.FiltersInto(nil), ref.FiltersInto(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("after the %s rule the filters differ from lockstep's", r.name)
		}
		if got, want := tagsOf(c), tagsOf(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("after the %s rule the tags differ from lockstep's", r.name)
		}
		if got, want := c.Sweep(wire.Violating()), ref.Sweep(wire.Violating()); !reflect.DeepEqual(got, want) {
			t.Errorf("after the %s rule the violation sweep reports %v, lockstep %v", r.name, got, want)
		}
	}
}

// TestUnicastsRunOnCaller: a unicast and MaxFindExclude are one node visit
// at the shard owning the node, so they run on the caller at any grain —
// even grain 0, where a BroadcastRule wakes all m workers — and leave the
// node a lockstep twin holds.
func TestUnicastsRunOnCaller(t *testing.T) {
	const n, m = 16, 4
	c := New(n, 9, WithShards(m), WithGrain(0))
	defer c.Close()
	ref := lockstep.New(n, 9)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(100 * i)
	}
	c.Advance(vals)
	ref.Advance(vals)
	for _, e := range []cluster.Engine{c, ref} {
		e.MaxFindInit(-1, true)
	}
	for _, call := range []struct {
		name  string
		do    func(e cluster.Engine)
		wakes int64
	}{
		{"SetFilter", func(e cluster.Engine) { e.SetFilter(5, filter.AtMost(99)) }, 0},
		{"SetTagFilter", func(e cluster.Engine) { e.SetTagFilter(9, wire.TagV2, filter.AtLeast(1000)) }, 0},
		{"Probe", func(e cluster.Engine) {
			if rep := e.Probe(5); rep.Value != 500 || rep.Dir != filter.DirUp {
				t.Errorf("Probe(5) = %+v, want value 500 above its filter", rep)
			}
		}, 0},
		{"MaxFindExclude", func(e cluster.Engine) { e.MaxFindExclude(13) }, 0},
		{"BroadcastRule", func(e cluster.Engine) {
			e.BroadcastRule(new(wire.FilterRule).With(wire.TagV2, filter.AtMost(1000)))
		}, m},
	} {
		w0 := c.d.wakes
		call.do(c)
		call.do(ref)
		if got := c.d.wakes - w0; got != call.wakes {
			t.Errorf("%s at grain 0 woke %d workers, want %d", call.name, got, call.wakes)
		}
		for id := range n {
			if got, want := c.Node(id), ref.Node(id); got != want {
				t.Fatalf("after %s node %d is %+v, lockstep's %+v", call.name, id, got, want)
			}
		}
	}
	if got, want := c.Sweep(wire.AboveActive(-1)), ref.Sweep(wire.AboveActive(-1)); !reflect.DeepEqual(got, want) {
		t.Errorf("after the exclusion the max-find sweep reports %v, lockstep %v", got, want)
	}
}

// TestMixedDispatch alternates calls on both sides of the grain inside one
// run — dense and sparse installs, whole-cluster and routed collects, sweeps
// whose later rounds shrink below it — and holds the engine to a lockstep
// twin after every step: values, filters, tags, reports, the counter
// snapshot, and the server stream's state. Under -race it is also the proof
// that shard state handed back and forth between the server's goroutine and
// the workers' is ordered by the dispatch's own synchronisation.
func TestMixedDispatch(t *testing.T) {
	const n, m, k, grain = 48, 3, 4, 24
	steps := 300
	if testing.Short() {
		steps = 100
	}
	e := eps.MustNew(1, 6)
	ls := lockstep.New(n, 77)
	lv := New(n, 77, WithShards(m), WithGrain(grain))
	defer lv.Close()

	// Each node call is tallied by who ran it.
	var onCaller, onWorkers int
	tally := func(f func()) {
		w0 := lv.d.wakes
		f()
		if lv.d.wakes == w0 {
			onCaller++
		} else {
			onWorkers++
		}
	}

	monA, monB := protocol.NewApprox(ls, k, e), protocol.NewApprox(lv, k, e)
	r := rngx.New(5)
	vals := make([]int64, n)
	var dirty []int
	for step := 0; step < steps; step++ {
		dirty = dirty[:0]
		if step%3 == 0 { // dense: n visits, above the grain
			for i := range vals {
				vals[i] = 5000 + r.Int63n(3000)
				dirty = append(dirty, i)
			}
		} else { // sparse: a handful, below it
			for j := r.Intn(5) + 1; j > 0; j-- {
				id := r.Intn(n)
				vals[id] = 5000 + r.Int63n(3000)
				dirty = append(dirty, id)
			}
		}
		ls.AdvanceDirty(vals, dirty)
		tally(func() { lv.AdvanceDirty(vals, dirty) })
		id := r.Intn(n)
		var repA, repB wire.Report
		repA = ls.Probe(id)
		tally(func() { repB = lv.Probe(id) })
		if repA != repB {
			t.Fatalf("step %d: Probe(%d) lockstep %v, live %v", step, id, repA, repB)
		}
		if step == 0 {
			monA.Start()
			monB.Start()
		} else {
			monA.HandleStep()
			monB.HandleStep()
		}
		if a, b := monA.Output(), monB.Output(); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: outputs lockstep %v, live %v", step, a, b)
		}

		lo := 5000 + r.Int63n(3000)
		for _, p := range []wire.Pred{
			wire.InRange(lo, lo+40),        // routed, a few candidates
			wire.HasTag(wire.TagNone),      // unroutable: n visits
			wire.Violating(),               // the violator set
			wire.InRange(0, eps.MaxValue),  // domain-covering: n visits
			wire.AboveActive(lo),           // the active lists
			wire.InRange(lo+100, lo+10000), // one bucket or two
		} {
			var got []wire.Report
			want := ls.Collect(p)
			tally(func() { got = lv.Collect(p) })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("step %d: Collect(%+v) lockstep %v, live %v", step, p, want, got)
			}
			if want, got = ls.Sweep(p), lv.Sweep(p); !reflect.DeepEqual(want, got) {
				t.Fatalf("step %d: Sweep(%+v) lockstep %v, live %v", step, p, want, got)
			}
		}

		ls.EndStep()
		lv.EndStep()
		if !reflect.DeepEqual(tagsOf(ls), tagsOf(lv)) {
			t.Fatalf("step %d: tags diverge", step)
		}
		if !reflect.DeepEqual(valuesOf(ls), valuesOf(lv)) {
			t.Fatalf("step %d: values diverge", step)
		}
		if !reflect.DeepEqual(ls.FiltersInto(nil), lv.FiltersInto(nil)) {
			t.Fatalf("step %d: filters diverge", step)
		}
		if a, b := *ls.Counters(), *lv.Counters(); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: counters diverge:\nlockstep %+v\nlive     %+v", step, a, b)
		}
		if *ls.Rand() != *lv.Rand() {
			t.Fatalf("step %d: the server stream's state diverged", step)
		}
	}
	if onCaller < steps || onWorkers < steps {
		t.Fatalf("%d tallied calls ran on the caller and %d on the workers: the run does not mix the dispatches",
			onCaller, onWorkers)
	}
}

// TestStopGoesThroughWorkers: Close hands the stop to all m workers,
// whatever the grain, and returns once they have exited.
func TestStopGoesThroughWorkers(t *testing.T) {
	const n, m = 8, 4
	c := New(n, 3, WithShards(m))
	c.Advance([]int64{8, 7, 6, 5, 4, 3, 2, 1})
	w0 := c.d.wakes

	closed := make(chan struct{})
	go func() {
		c.Close() // returns once every worker goroutine has exited
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the stop never reached the workers")
	}
	if got := c.d.wakes - w0; got != m {
		t.Errorf("Close woke %d workers, want all %d", got, m)
	}
}

// TestUseAfterClosePanics: once Close has stopped the workers, every call
// that reaches the nodes panics at once — instead of signalling goroutines
// that are gone and waiting for their answer forever, or of billing a
// message whose nodes never change.
func TestUseAfterClosePanics(t *testing.T) {
	vals := make([]int64, 8)
	for name, call := range map[string]func(c *Cluster){
		"Probe":          func(c *Cluster) { c.Probe(3) },
		"Collect":        func(c *Cluster) { c.Collect(wire.InRange(0, 10)) },
		"Sweep":          func(c *Cluster) { c.Sweep(wire.Violating()) },
		"FiltersInto":    func(c *Cluster) { c.FiltersInto(nil) },
		"SetFilter":      func(c *Cluster) { c.SetFilter(3, filter.All) },
		"SetTagFilter":   func(c *Cluster) { c.SetTagFilter(3, wire.TagOut, filter.All) },
		"BroadcastRule":  func(c *Cluster) { c.BroadcastRule(&wire.FilterRule{}) },
		"MaxFindInit":    func(c *Cluster) { c.MaxFindInit(0, true) },
		"MaxFindRaise":   func(c *Cluster) { c.MaxFindRaise(3, 0) },
		"MaxFindExclude": func(c *Cluster) { c.MaxFindExclude(3) },
		"Advance":        func(c *Cluster) { c.Advance(vals) },
		"AdvanceDirty":   func(c *Cluster) { c.AdvanceDirty(vals, []int{3}) },
		"Reset":          func(c *Cluster) { c.Reset(1) },
	} {
		t.Run(name, func(t *testing.T) {
			c := New(8, 1, WithShards(2))
			c.Close()
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				call(c)
			}()
			select {
			case r := <-got:
				if r != "live: use after Close" {
					t.Fatalf("%s after Close: recovered %v, want the use-after-Close panic", name, r)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s after Close did not return", name)
			}
		})
	}
}
