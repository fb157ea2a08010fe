package faults

import (
	"reflect"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// mkTrace pre-generates a drifting-walk trace.
func mkTrace(n, steps int, seed uint64) [][]int64 {
	gen := stream.NewWalk(n, 100000, 500, 1<<24, seed)
	trace := make([][]int64, steps)
	for t := range trace {
		trace[t] = gen.Next(t)
	}
	return trace
}

// faultTrail is everything observable about a faulty run: per-step outputs
// and the final counter snapshot (model messages AND fault accounting).
type faultTrail struct {
	outs []([]int)
	snap metrics.Counters
}

// runMonitored drives the Approx monitor over a trace on eng, tolerating
// protocol panics: under heavy injected faults a desynced protocol may
// trip its quiescence guard, and this harness heals it the way the facade
// supervisor does — rebuild the algorithm and reopen an epoch on the next
// step. Panic steps record the marker output [-1]. The whole trail,
// including where panics land, is deterministic.
func runMonitored(eng cluster.Engine, trace [][]int64, k int) (trail faultTrail) {
	e := eps.MustNew(1, 8)
	mon := protocol.NewApprox(eng, k, e)
	start := true
	for _, vals := range trace {
		eng.Advance(vals)
		panicked := func() (p bool) {
			defer func() {
				if recover() != nil {
					p = true
				}
			}()
			if start {
				mon.Start()
				start = false
			} else {
				mon.HandleStep()
			}
			return false
		}()
		if panicked {
			mon = protocol.NewApprox(eng, k, e)
			start = true
			trail.outs = append(trail.outs, []int{-1})
		} else {
			trail.outs = append(trail.outs, append([]int(nil), mon.Output()...))
		}
		eng.EndStep()
	}
	trail.snap = *eng.Counters()
	return trail
}

func chaosPlan() *Plan {
	return &Plan{
		Drop:  0.15,
		Dup:   0.05,
		Delay: 0.05,
		Crashes: []Crash{
			{Node: 1, From: 20, Until: 60},
			{Node: 5, From: 80, Until: 110},
		},
	}
}

// TestZeroPlanTransparent: wrapping with a nil or zero plan changes
// nothing — outputs and every counter are byte-identical to the bare
// engine, and no fault counter moves.
func TestZeroPlanTransparent(t *testing.T) {
	const n, k, steps, seed = 32, 4, 150, 9
	trace := mkTrace(n, steps, 3)
	want := runMonitored(lockstep.New(n, seed), trace, k)

	for _, tc := range []struct {
		name string
		plan *Plan
	}{
		{"nil-plan", nil},
		{"zero-plan", &Plan{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := Wrap(lockstep.New(n, seed), tc.plan, seed)
			got := runMonitored(w, trace, k)
			if !reflect.DeepEqual(want.outs, got.outs) {
				t.Fatal("outputs diverge through a transparent wrapper")
			}
			if !reflect.DeepEqual(want.snap, got.snap) {
				t.Fatalf("counters diverge through a transparent wrapper:\nbare:    %+v\nwrapped: %+v",
					want.snap, got.snap)
			}
			if got.snap.DroppedMsgs()|got.snap.DupMsgs()|got.snap.Retries() != 0 {
				t.Fatalf("transparent wrapper billed faults: %+v", got.snap)
			}
		})
	}
}

// TestActivePlanInjects: a plan with real rates actually drops, duplicates
// and retries — the chaos suite must not vacuously pass on a silent
// injector.
func TestActivePlanInjects(t *testing.T) {
	const n, k, steps, seed = 32, 4, 150, 9
	trace := mkTrace(n, steps, 3)
	got := runMonitored(Wrap(lockstep.New(n, seed), chaosPlan(), seed), trace, k)
	if got.snap.DroppedMsgs() == 0 {
		t.Error("active plan dropped no messages")
	}
	if got.snap.DupMsgs() == 0 {
		t.Error("active plan duplicated no messages")
	}
	if got.snap.Retries() == 0 {
		t.Error("active plan triggered no retries")
	}
}

// TestFaultyReplayByteIdentical: equal seeds and plans replay chaos byte
// for byte — outputs, model counters, and fault counters.
func TestFaultyReplayByteIdentical(t *testing.T) {
	const n, k, steps, seed = 32, 4, 150, 9
	trace := mkTrace(n, steps, 3)
	a := runMonitored(Wrap(lockstep.New(n, seed), chaosPlan(), seed), trace, k)
	b := runMonitored(Wrap(lockstep.New(n, seed), chaosPlan(), seed), trace, k)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical faulty runs diverge:\na: %+v\nb: %+v", a.snap, b.snap)
	}
}

// TestResetReplaysInjector: Reset(seed) rewinds the injector's RNG stream,
// step clock, belief mirror and delay queue along with the engine, so a
// reset faulty system replays the fresh one bit for bit.
func TestResetReplaysInjector(t *testing.T) {
	const n, k, steps, seed = 32, 4, 120, 9
	trace := mkTrace(n, steps, 3)
	w := Wrap(lockstep.New(n, seed), chaosPlan(), seed)
	fresh := runMonitored(w, trace, k)
	w.Reset(seed)
	replay := runMonitored(w, trace, k)
	if !reflect.DeepEqual(fresh, replay) {
		t.Fatalf("reset faulty run diverges from fresh run:\nfresh:  %+v\nreplay: %+v",
			fresh.snap, replay.snap)
	}

	// A different seed must give a different fault pattern (the injector's
	// stream really is seed-derived, not fixed).
	w.Reset(seed + 1)
	other := runMonitored(w, trace, k)
	if reflect.DeepEqual(fresh.snap, other.snap) {
		t.Fatal("different seeds produced identical fault accounting")
	}
}

// TestEngineConformance pins the five fault counters across engines: the
// injector's decisions depend only on (seed, plan, message history), and
// the engines' message histories are equivalent, so lockstep and live runs
// under the same faults must agree on every counter and every output.
func TestEngineConformance(t *testing.T) {
	const n, k, steps, seed = 32, 4, 150, 9
	trace := mkTrace(n, steps, 3)

	ls := runMonitored(Wrap(lockstep.New(n, seed), chaosPlan(), seed), trace, k)
	lv := live.New(n, seed, live.WithShards(3))
	defer lv.Close()
	lw := runMonitored(Wrap(lv, chaosPlan(), seed), trace, k)

	if !reflect.DeepEqual(ls.outs, lw.outs) {
		t.Fatal("faulty outputs diverge across engines")
	}
	if !reflect.DeepEqual(ls.snap, lw.snap) {
		t.Fatalf("faulty counters diverge across engines:\nlockstep: %+v\nlive:     %+v",
			ls.snap, lw.snap)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"DroppedMsgs", ls.snap.DroppedMsgs()},
		{"DupMsgs", ls.snap.DupMsgs()},
		{"Retries", ls.snap.Retries()},
	} {
		if c.v == 0 {
			t.Errorf("conformance run never exercised %s", c.name)
		}
	}
}

// TestCrashWindowSemantics: during its window a crashed node reports
// nothing and probes serve the stale pre-crash cache; after the window it
// reports again.
func TestCrashWindowSemantics(t *testing.T) {
	const n, seed = 4, 7
	w := Wrap(lockstep.New(n, seed), &Plan{
		Crashes: []Crash{{Node: 2, From: 2, Until: 4}},
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
	if err := (&Plan{Crashes: []Crash{{Node: 4, From: 1, Until: 2}}}).Validate(4); err == nil {
		t.Error("out-of-range crash node accepted")
	}
	if err := (&Plan{Crashes: []Crash{{Node: 0, From: 0, Until: 2}}}).Validate(4); err == nil {
		t.Error("crash window starting before step 1 accepted")
	}
}
