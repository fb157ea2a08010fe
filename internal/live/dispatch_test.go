package live

import (
	"reflect"
	"testing"
	"time"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// TestQuietStepWakesNobody pins what the grain buys on the step most steps
// are: a few dozen nodes moved inside their filters, at an n where the
// workers used to be woken for it. The delta rides with the violation
// sweep's round 0, which finds no matcher — one barrier round, executed by
// the caller, and nothing allocated.
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
	f0, w0 := c.Flushes(), c.b.wakes
	step()
	if got := c.Flushes() - f0; got != 1 {
		t.Errorf("quiet step ran %d barrier rounds, want 1", got)
	}
	if got := c.b.wakes - w0; got != 0 {
		t.Errorf("quiet step of %d moved nodes woke %d workers, want 0", moved, got)
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("quiet step allocates %.2f times, want 0", avg)
	}
	if got := valuesOf(c); !reflect.DeepEqual(got, vals) {
		t.Error("the caller-executed installs did not reach the nodes")
	}
}

// TestLargeFlushWakesWorkers is the other side: a batch whose work reaches
// the grain is handed to every worker it addresses — and the boundary sits
// where the accounting says, one visit per staged observation and one per
// unicast.
func TestLargeFlushWakesWorkers(t *testing.T) {
	const n, m = parallelGrain, 4
	c := New(n, 9, WithShards(m))
	defer c.Close()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	flushed := func(f func()) (flushes, wakes int64) {
		f0, w0 := c.Flushes(), c.b.wakes
		f()
		return c.Flushes() - f0, c.b.wakes - w0
	}

	if f, w := flushed(func() {
		c.Advance(vals)
		c.MaxFindInit(-1, true)
		c.Probe(0)
	}); f != 1 || w != m {
		t.Errorf("dense Advance + MaxFindInit at n=%d: %d flushes woke %d workers, want 1 and all %d", n, f, w, m)
	}

	// parallelGrain-2 observations and a probe: one visit short of the grain.
	ids := make([]int, parallelGrain-2)
	for i := range ids {
		ids[i] = i
	}
	if f, w := flushed(func() {
		c.AdvanceDirty(vals, ids)
		c.Probe(0)
	}); f != 1 || w != 0 {
		t.Errorf("a batch of %d visits: %d flushes woke %d workers, want 1 and 0", parallelGrain-1, f, w)
	}
	if f, w := flushed(func() {
		c.AdvanceDirty(vals, ids)
		c.SetFilter(n-1, filter.All)
		c.Probe(0)
	}); f != 1 || w != m {
		t.Errorf("a batch of %d visits: %d flushes woke %d workers, want 1 and the %d it addresses", parallelGrain, f, w, m)
	}
}

// TestMixedDispatch alternates flushes on both sides of the grain inside one
// run — dense and sparse installs, whole-cluster and routed collects, sweeps
// whose later rounds shrink below it — and holds the engine to a lockstep
// twin after every step: values, filters, tags, reports, the counter
// snapshot, and every node's RNG state. Under -race it is also the proof
// that shard state handed back and forth between the server's goroutine and
// the workers' is ordered by the flush's own synchronisation.
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

	// Every single-flush call is tallied by who executed it.
	var onCaller, onWorkers int
	tally := func(f func()) {
		f0, w0 := lv.Flushes(), lv.b.wakes
		f()
		if lv.Flushes()-f0 == 1 {
			if lv.b.wakes == w0 {
				onCaller++
			} else {
				onWorkers++
			}
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
		lv.AdvanceDirty(vals, dirty)
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
			wire.Violating(),               // the mirror's set
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
		if a, b := ls.Counters().Snapshot(), lv.Counters().Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: counters diverge:\nlockstep %+v\nlive     %+v", step, a, b)
		}
		for i := 0; i < n; i++ {
			if ls.Node(i).RNG != lv.Node(i).RNG {
				t.Fatalf("step %d: node %d's RNG state diverged", step, i)
			}
		}
	}
	if onCaller < steps || onWorkers < steps {
		t.Fatalf("%d single-flush calls ran on the caller and %d on the workers: the run does not mix the dispatches",
			onCaller, onWorkers)
	}
}

// TestStopGoesThroughWorkers: the batch Close flushes is tiny, and it is the
// one batch that may never run on the caller — dirStop is what ends the
// goroutines. Deferred directives pending at Close are applied first.
func TestStopGoesThroughWorkers(t *testing.T) {
	const n, m = 8, 4
	c := New(n, 3, WithShards(m))
	vals := []int64{8, 7, 6, 5, 4, 3, 2, 1}
	iv := filter.Make(0, 4)
	c.Advance(vals)
	c.SetFilter(5, iv)
	w0 := c.b.wakes

	closed := make(chan struct{})
	go func() {
		c.Close() // returns once every worker goroutine has exited
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the stop directive never reached the workers")
	}
	if got := c.b.wakes - w0; got != m {
		t.Errorf("Close woke %d workers, want all %d", got, m)
	}
	for i, want := range vals {
		if got := c.b.shards[c.b.workerOf[i]].Node(i).Value; got != want {
			t.Errorf("node %d holds %d after Close, want the deferred Advance's %d", i, got, want)
		}
	}
	if got := c.b.shards[c.b.workerOf[5]].Node(5).Filter; got != iv {
		t.Errorf("node 5's filter is %v after Close, want the deferred SetFilter's %v", got, iv)
	}
}

// TestUseAfterClosePanics: once Close has stopped the workers, a call that
// reaches the nodes panics at once instead of signalling goroutines that
// are gone and waiting for their answer forever.
func TestUseAfterClosePanics(t *testing.T) {
	for name, call := range map[string]func(c *Cluster){
		"Probe":       func(c *Cluster) { c.Probe(3) },
		"Collect":     func(c *Cluster) { c.Collect(wire.InRange(0, 10)) },
		"Sweep":       func(c *Cluster) { c.Sweep(wire.Violating()) },
		"FiltersInto": func(c *Cluster) { c.FiltersInto(nil) },
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
