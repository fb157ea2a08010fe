package faults_test

import (
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/eps"
	"topkmon/internal/faults"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/topk"
)

// chaos is the kept fault-layer walk under drops, duplicates, delays and
// two crash windows, at ε = 1/256: its tight filters make the monitor send
// enough unicasts that some are retried. At the kept row's ε = 1/8 a seeded
// epoch opening sends so few messages that the walk retries none, and the
// suite would run its injector without exercising the retry sublayer.
func chaos() chaintest.Row {
	r := chaintest.Kept("faults")
	r.Eps = eps.MustNew(1, 256)
	r.Faults = &topk.FaultPlan{Drop: 0.15, Dup: 0.05, Delay: 0.05,
		Crashes: []topk.Crash{{Node: 1, From: 20, Until: 60}, {Node: 5, From: 80, Until: 110}}}
	return r
}

// TestZeroPlanTransparent is the faulty link on fault-free rows: wrapping
// the engine with a nil or zero plan changes nothing — every step records
// what the bare engine records, the whole counter set (so every fault
// counter stays zero) and node state included.
func TestZeroPlanTransparent(t *testing.T) {
	check := func(t *testing.T, r chaintest.Row, ref chaintest.Ref, plan *faults.Plan) {
		w := faults.Wrap(lockstep.New(r.N, r.Seed), plan, r.Seed)
		chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, w).Step))
	}
	kept := chaintest.Kept("faults")
	ref := kept.Reference()
	t.Run("nil-plan", func(t *testing.T) { check(t, kept, ref, nil) })
	t.Run("zero-plan", func(t *testing.T) { check(t, kept, ref, &faults.Plan{}) })
	for _, r := range chaintest.Rows(chaintest.Faulty) {
		if r.Faults == nil {
			ref := r.Reference()
			t.Run(r.Name+"/zero-plan", func(t *testing.T) { check(t, r, ref, &faults.Plan{}) })
		}
	}
}

// TestEngineConformance is the faulty link on fault-armed rows: the
// injector's decisions depend only on (seed, plan, message history), and
// the engines' message histories are equivalent, so a lockstep and a live
// run under the same faults record the same thing at every step — every
// output, counter (the five fault counters among them) and node.
func TestEngineConformance(t *testing.T) {
	for _, r := range append(chaintest.Rows(chaintest.Faulty), chaos()) {
		if r.Faults == nil {
			continue
		}
		t.Run(r.Name+"/live/m=3", func(t *testing.T) {
			ref := r.Reference()
			lv := live.New(r.N, r.Seed, live.WithShards(3))
			defer lv.Close()
			chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, lv).Step))
		})
	}
}

// TestActivePlanInjects: a plan with real rates actually drops, duplicates
// and retries — the chaos suite must not vacuously pass on a silent
// injector.
func TestActivePlanInjects(t *testing.T) {
	ref := chaos().Reference()
	c := ref.Obs[len(ref.Obs)-1].Cost
	if c.DroppedMsgs == 0 || c.DupMsgs == 0 || c.Retries == 0 {
		t.Errorf("active plan left a fault counter at zero: %+v", c)
	}
}

// TestFaultyReplayByteIdentical: equal seeds and plans replay chaos byte
// for byte — outputs, model counters, fault counters and node state.
func TestFaultyReplayByteIdentical(t *testing.T) {
	chaintest.Same(t, chaos().Reference().Obs, chaos().Reference().Obs)
}

// TestResetReplaysInjector: Reset(seed) rewinds the injector's RNG stream,
// step clock, belief mirror and delay queue along with the engine, so a
// reset faulty system replays the fresh one bit for bit.
func TestResetReplaysInjector(t *testing.T) {
	r := chaos()
	r.Steps = 120
	ref := r.Reference()
	d := chaintest.NewDirect(r, lockstep.New(r.N, r.Seed))
	chaintest.Run(ref.Trace, d.Step)
	d.Reset(r.Seed)
	chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, d.Step))

	// A different seed must give a different fault pattern (the injector's
	// stream really is seed-derived, not fixed).
	d.Reset(r.Seed + 1)
	other := chaintest.Run(ref.Trace, d.Step)
	if ref.Obs[len(ref.Obs)-1].Counters == other[len(other)-1].Counters {
		t.Fatal("different seeds produced identical fault accounting")
	}
}
