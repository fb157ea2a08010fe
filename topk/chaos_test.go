package topk_test

import (
	"fmt"
	"strings"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/faults"
	"topkmon/internal/lockstep"
	"topkmon/internal/wire"
	"topkmon/topk"
)

// chaosSchedules are the crash schedules the chaos matrix cycles through:
// a single mid-run crash, and two overlapping-window crashes.
var chaosSchedules = [][]topk.Crash{
	{{Node: 1, From: 10, Until: 30}},
	{{Node: 0, From: 5, Until: 25}, {Node: 7, From: 40, Until: 60}},
}

// chaosRow is the kept chaos walk under a plan of the given drop rate
// (duplicates and delays at half of it) and crash schedule.
func chaosRow(drop float64, sched int) chaintest.Row {
	r := chaintest.Kept("chaos")
	r.Faults = &topk.FaultPlan{Drop: drop, Dup: drop / 2, Delay: drop / 2, Crashes: chaosSchedules[sched]}
	return r
}

// TestChaosNoSilentWrongAnswers is the acceptance proof of the fault layer:
// across drop rates {0, 0.01, 0.1, 0.3}, two crash schedules, and both
// engines, every committed step either validates against the built-in
// referee or is explicitly flagged non-Fresh. The matrix also proves it is
// not vacuous — the injector demonstrably drops messages, and the heavy
// corner demonstrably forces resyncs.
func TestChaosNoSilentWrongAnswers(t *testing.T) {
	trace := chaintest.Kept("chaos").Reference().Trace
	var sawDrop, sawResync, sawNonFresh bool
	for _, engine := range []topk.EngineKind{topk.Lockstep, topk.Live} {
		for _, rate := range []float64{0, 0.01, 0.1, 0.3} {
			for si := range chaosSchedules {
				t.Run(fmt.Sprintf("%v/drop=%v/sched=%d", engine, rate, si), func(t *testing.T) {
					obs := chaintest.RunFacade(chaosRow(rate, si), trace, topk.WithEngine(engine), topk.WithShards(3))
					if i := chaintest.SilentWrong(obs); i >= 0 {
						t.Fatalf("step %d: SILENT WRONG ANSWER: Check failed (%s) but Health is fresh", i+1, obs[i].Check)
					}
					last := obs[len(obs)-1].Cost
					sawDrop = sawDrop || last.DroppedMsgs > 0
					sawResync = sawResync || last.Resyncs > 0
					for _, o := range obs {
						sawNonFresh = sawNonFresh || o.Health.State != "fresh"
					}
				})
			}
		}
	}
	if !sawDrop {
		t.Error("chaos matrix never dropped a message — injector is silent")
	}
	if !sawResync {
		t.Error("chaos matrix never resynced — supervisor is silent")
	}
	if !sawNonFresh {
		t.Error("chaos matrix never left Fresh — degradation reporting is silent")
	}
}

// TestChaosReplayByteIdentical: two fault-armed monitors with equal seeds,
// plans and pushes replay chaos byte for byte — outputs, health trail, and
// the full bill including fault accounting, at every step.
func TestChaosReplayByteIdentical(t *testing.T) {
	r := chaosRow(0.1, 1)
	ref := r.FacadeReference()
	chaintest.Same(t, ref.Obs, chaintest.RunFacade(r, ref.Trace))
}

// TestChaosEngineConformance: the same chaotic run on lockstep and on the
// sharded live engine records the same outputs, health, and bills at every
// step — the fault layer preserves the engines' observable equivalence.
func TestChaosEngineConformance(t *testing.T) {
	r := chaosRow(0.1, 0)
	ref := r.FacadeReference()
	got := chaintest.RunFacade(r, ref.Trace, topk.WithEngine(topk.Live), topk.WithShards(3))
	chaintest.Same(t, ref.Obs, got)
}

// TestChaosResetReplays: Reset(seed) on a fault-armed monitor rewinds the
// injector's RNG stream and the supervisor's state machine along with the
// engine, so the replay is byte-identical to the fresh run — and a
// different seed yields a different fault pattern.
func TestChaosResetReplays(t *testing.T) {
	r := chaosRow(0.1, 1)
	ref := r.FacadeReference()
	p := chaintest.NewPusher(r)
	defer p.M.Close()
	chaintest.Run(ref.Trace, p.Step)

	if err := p.M.Reset(r.Seed); err != nil {
		t.Fatal(err)
	}
	if h := p.M.Health(); h.State != topk.Fresh || h.StaleFor != 0 || h.Err != nil {
		t.Fatalf("Health after Reset = %+v, want zero", h)
	}
	chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, p.Step))

	if err := p.M.Reset(r.Seed + 1); err != nil {
		t.Fatal(err)
	}
	other := chaintest.Run(ref.Trace, p.Step)
	if ref.Obs[len(ref.Obs)-1].Cost == other[len(other)-1].Cost {
		t.Fatal("different seeds produced identical chaotic bills")
	}
}

// TestZeroPlanFacadeTransparent: arming the fault layer with a zero plan
// changes nothing — every step records what the direct run records, so
// every fault counter stays zero and health stays Fresh.
func TestZeroPlanFacadeTransparent(t *testing.T) {
	r := chaintest.Kept("facade/n=16")
	ref := r.Reference()
	chaintest.Same(t, ref.Obs, chaintest.RunFacade(r, ref.Trace, topk.WithFaults(&topk.FaultPlan{})))
}

// TestDegradationEvents: a monitor that degrades delivers events carrying
// the non-Fresh health to subscribers, even when the top-k set itself is
// unchanged.
func TestDegradationEvents(t *testing.T) {
	r := chaosRow(0.3, 0)
	r.Faults.Dup, r.Faults.Delay = 0.1, 0
	p := chaintest.NewPusher(r)
	defer p.M.Close()
	ev := p.M.Subscribe()

	var wantNonFresh bool
	for _, o := range chaintest.Run(r.Reference().Trace, p.Step) {
		wantNonFresh = wantNonFresh || o.Health.State != "fresh"
	}
	if !wantNonFresh {
		t.Skip("run stayed fresh; degradation event check is moot at this seed")
	}

	var gotNonFresh bool
	for {
		select {
		case e := <-ev:
			if e.Health.State != topk.Fresh {
				gotNonFresh = true
			}
		default:
			if !gotNonFresh {
				t.Fatal("monitor degraded but no event carried a non-Fresh health")
			}
			return
		}
	}
}

// TestShortProbeNamed: with every EXISTENCE report dropped, no max-find
// finds a node, so the probe an epoch opens with comes back empty. Each of
// the six algorithms that open with one fails its first step and its
// resync with an error that names the short probe — not an index out of
// range — and the supervised monitor's health is not Fresh. The plan masks
// a kind the facade's FaultPlan cannot, so the injector wraps the engine
// directly and a zero FaultPlan arms the supervisor over it.
func TestShortProbeNamed(t *testing.T) {
	const n, k = 16, 4
	for _, a := range []topk.Algorithm{topk.Approx, topk.Exact, topk.TopKProtocol, topk.Dense, topk.HalfEps, topk.MidNaive} {
		t.Run(a.String(), func(t *testing.T) {
			plan := &faults.Plan{Drop: 1, Kinds: faults.MaskOf(wire.KindExistenceReport)}
			m, err := topk.New(k, topk.MustEpsilon(1, 8), topk.WithMonitor(a),
				topk.WithClusterEngine(faults.Wrap(lockstep.New(n, 3), plan, 3)), topk.WithFaults(&topk.FaultPlan{}))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for i := range n {
				if err := m.Update(i, int64(100*(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			h := m.Health()
			if h.State == topk.Fresh || h.Err == nil || !strings.Contains(h.Err.Error(), "probe returned 0 of 5 reports") {
				t.Fatalf("health %v, err %v; want a non-Fresh health naming the short probe", h.State, h.Err)
			}
		})
	}
}
