package faults

import (
	"math"
	"reflect"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/wire"
)

// TestCrashWindowSemantics: during its window a crashed node reports
// nothing and probes serve the stale pre-crash cache; after the window it
// reports again. A node with overlapping windows is down for their union.
func TestCrashWindowSemantics(t *testing.T) {
	const n, seed = 4, 7
	w := Wrap(lockstep.New(n, seed), &Plan{
		Crashes: []Crash{{Node: 2, From: 2, Until: 4}, {Node: 1, From: 5, Until: 7}, {Node: 1, From: 6, Until: 8}},
	}, seed)

	vals := []int64{10, 20, 30, 40}
	w.Advance(vals) // step 1: node 2 up, lastVals[2] = 30
	if got := w.Probe(2); got.Value != 30 {
		t.Fatalf("step 1 probe = %d, want live value 30", got.Value)
	}
	w.EndStep()

	vals[2] = 99
	w.Advance(vals) // step 2: node 2 down; cache stays 30
	if !w.Crashed(2) {
		t.Fatal("node 2 should be crashed at step 2")
	}
	if got := w.Probe(2); got.Value != 30 {
		t.Fatalf("crashed probe = %d, want stale cache 30", got.Value)
	}
	if reps := w.Collect(wire.InRange(0, 1<<30)); len(reps) != n-1 {
		t.Fatalf("collect during crash returned %d reports, want %d (crashed node silent)", len(reps), n-1)
	}
	w.EndStep()

	w.Advance(vals) // step 3: still down
	w.EndStep()
	w.Advance(vals) // step 4: recovered
	if w.Crashed(2) {
		t.Fatal("node 2 should have recovered at step 4")
	}
	if got := w.Probe(2); got.Value != 99 {
		t.Fatalf("post-recovery probe = %d, want live value 99", got.Value)
	}
	if reps := w.Collect(wire.InRange(0, 1<<30)); len(reps) != n {
		t.Fatalf("collect after recovery returned %d reports, want %d", len(reps), n)
	}
	w.EndStep()

	// Node 1's windows [5, 7) and [6, 8) overlap: it is down at steps 5-7,
	// and the end of the first window leaves its cache frozen.
	vals[1] = 77
	for step := int64(5); step <= 8; step++ {
		w.Advance(vals)
		down, cached := step < 8, int64(77)
		if down {
			cached = 20
		}
		if w.Crashed(1) != down {
			t.Fatalf("step %d: Crashed(1) = %v, want %v", step, !down, down)
		}
		if got := w.Probe(1); got.Value != cached {
			t.Fatalf("step %d: probe of node 1 = %d, want %d", step, got.Value, cached)
		}
		w.EndStep()
	}
}

// TestDeltaRefreshesCacheAtWindowEnd: the stale-probe cache follows only the
// dirty nodes under AdvanceDirty, so a node pushed while it was crashed and
// not pushed again would keep its pre-crash cache forever unless the cache
// is re-read when the window ends. Twin wrappers replay one script, dense
// Advance on one and AdvanceDirty on the other, with every probe REPLY
// dropped so that each probe of an up node answers from the cache; the two
// must answer alike at every step. Node 1's back-to-back windows check that
// the end of the first does not refresh a node the second still holds down.
func TestDeltaRefreshesCacheAtWindowEnd(t *testing.T) {
	const n, seed = 4, 7
	plan := &Plan{
		Drop:    1,
		Kinds:   MaskOf(wire.KindProbeReply),
		Retries: NoRetries,
		Crashes: []Crash{
			{Node: 2, From: 2, Until: 4},
			{Node: 1, From: 2, Until: 3}, {Node: 1, From: 3, Until: 5},
		},
	}
	dense := Wrap(lockstep.New(n, seed), plan, seed)
	delta := Wrap(lockstep.New(n, seed), plan, seed)

	vals := []int64{10, 20, 30, 40}
	script := []struct {
		dirty []int
		set   map[int]int64
	}{
		{dirty: []int{0, 1, 2, 3}},                             // step 1: load
		{dirty: []int{2, 1}, set: map[int]int64{2: 99, 1: 55}}, // step 2: both pushed while down
		{dirty: nil}, // step 3: node 1's first window ends, second begins
		{dirty: []int{0}, set: map[int]int64{0: 11}}, // step 4: node 2 back up, not pushed again
		{dirty: nil}, // step 5: node 1 back up, not pushed again
		{dirty: nil},
	}
	var last [n]int64
	for i, st := range script {
		for id, v := range st.set {
			vals[id] = v
		}
		dense.Advance(vals)
		delta.AdvanceDirty(vals, st.dirty)
		for id := 0; id < n; id++ {
			want, got := dense.Probe(id), delta.Probe(id)
			if want != got {
				t.Fatalf("step %d: probe %d answers %+v on the delta path, %+v on the dense path", i+1, id, got, want)
			}
			last[id] = got.Value
		}
		dense.EndStep()
		delta.EndStep()
	}
	if want := [n]int64{11, 55, 99, 40}; last != want {
		t.Fatalf("caches after every window closed: %v, want the current values %v", last, want)
	}
	if want, got := *dense.Counters(), *delta.Counters(); !reflect.DeepEqual(want, got) {
		t.Fatalf("counters diverge:\ndense %+v\ndelta %+v", want, got)
	}
}

// TestDesyncDetection: a lost filter assignment makes the node report a
// violation that is impossible under the filter the server believes it
// holds; the wrapper latches the desync signal.
func TestDesyncDetection(t *testing.T) {
	const n, seed = 4, 7
	// Drop every SetFilter outright (no retries); reports get through.
	w := Wrap(lockstep.New(n, seed), &Plan{
		Drop:    1,
		Kinds:   MaskOf(wire.KindSetFilter),
		Retries: NoRetries,
	}, seed)

	// Only node 3 will ever sit above the [0, 15] filters assigned below,
	// so every violation sweep's terminating round contains exactly node 3
	// and the test stays deterministic.
	vals := []int64{10, 12, 14, 40}
	w.Advance(vals)
	// The server narrows node 3 to [0, 15]; the injector eats the message,
	// so the node still holds the all-admitting filter.
	w.SetFilter(3, filter.Make(0, 15))
	w.EndStep()
	if w.TakeDesync() {
		t.Fatal("desync latched before any report")
	}
	if w.Counters().DroppedMsgs() != 1 {
		t.Fatalf("DroppedMsgs = %d, want 1", w.Counters().DroppedMsgs())
	}

	// Node 3's value 40 violates the believed filter [0, 15], but the node
	// (still all-admitting) reports nothing: the violation sweep is silent,
	// no impossible report, no signal — this is the silent divergence only
	// the facade referee can catch.
	w.Advance(vals)
	if _, ok := w.DetectViolation(); ok {
		t.Fatal("node with all-admitting filter reported a violation")
	}
	if w.TakeDesync() {
		t.Fatal("silent divergence cannot be message-detected")
	}
	w.EndStep()

	// Now the server believes it widened node 3 to all-admitting again
	// (message also lost — irrelevant, belief is what counts) and instead
	// narrows node 0 successfully via a broadcast rule... but first: make
	// node 3 actually desync the other way. Assign node 3 a REAL filter via
	// a broadcast (rules are not masked), then believe a lost widening.
	rule := new(wire.FilterRule).With(wire.TagNone, filter.Make(0, 15))
	w.BroadcastRule(rule)      // delivered: every TagNone node now holds [0,15]
	w.SetFilter(3, filter.All) // lost: node 3 keeps [0,15], server believes All
	w.EndStep()

	// Node 3 (value 40) violates its actual filter [0,15] and reports; the
	// report is impossible under the believed all-admitting filter.
	w.Advance(vals)
	if _, ok := w.DetectViolation(); !ok {
		t.Fatal("expected a violation report from the desynced node")
	}
	if !w.TakeDesync() {
		t.Fatal("impossible report did not latch the desync signal")
	}
	if w.TakeDesync() {
		t.Fatal("TakeDesync did not clear the latch")
	}
	w.EndStep()
}

// TestPlanValidate covers the plan sanity checks.
func TestPlanValidate(t *testing.T) {
	if err := (*Plan)(nil).Validate(4); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if err := (&Plan{Drop: 1.5}).Validate(4); err == nil {
		t.Error("rate > 1 accepted")
	}
	for _, p := range []*Plan{{Drop: math.NaN()}, {Dup: math.NaN()}, {Delay: math.NaN()}} {
		if err := p.Validate(4); err == nil {
			t.Errorf("NaN rate accepted: %+v", *p)
		}
	}
	if err := (&Plan{Crashes: []Crash{{Node: 4, From: 1, Until: 2}}}).Validate(4); err == nil {
		t.Error("out-of-range crash node accepted")
	}
	if err := (&Plan{Crashes: []Crash{{Node: 0, From: 0, Until: 2}}}).Validate(4); err == nil {
		t.Error("crash window starting before step 1 accepted")
	}
}

// TestSeedAcknowledged: a seeded Init is acknowledged only when the
// broadcast arrives and the seed's node answers — a lost broadcast, a lost
// reply and a crashed seed each return false, and the two losses are
// billed as drops.
func TestSeedAcknowledged(t *testing.T) {
	const n, seed = 4, 7
	vals := []int64{10, 20, 30, 40}
	seedRep := wire.Report{ID: 2, Value: 30}
	for _, c := range []struct {
		name    string
		plan    *Plan
		ack     bool
		dropped int64
	}{
		{"zero-plan", &Plan{}, true, 0},
		{"init-lost", &Plan{Drop: 1, Kinds: MaskOf(wire.KindMaxFindInit)}, false, 1},
		{"reply-lost", &Plan{Drop: 1, Kinds: MaskOf(wire.KindProbeReply)}, false, 1},
		{"seed-crashed", &Plan{Crashes: []Crash{{Node: 2, From: 1, Until: 2}}}, false, 0},
		{"other-crashed", &Plan{Crashes: []Crash{{Node: 1, From: 1, Until: 2}}}, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := Wrap(lockstep.New(n, seed), c.plan, seed)
			w.Advance(vals)
			if got := w.MaxFindSeed(seedRep); got != c.ack {
				t.Errorf("MaxFindSeed = %v, want %v", got, c.ack)
			}
			if got := w.Counters().DroppedMsgs(); got != c.dropped {
				t.Errorf("DroppedMsgs = %d, want %d", got, c.dropped)
			}
		})
	}
}
