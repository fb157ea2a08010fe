package topk_test

import (
	"fmt"
	"reflect"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/topk"
)

// directRun is the pre-facade outer loop: generator → engine → monitor,
// exactly as internal/sim drove runs before the push API existed. The
// facade must reproduce it byte for byte.
func directRun(eng cluster.Engine, trace [][]int64, k int, e eps.Eps) ([][]int, metrics.Counters, int64) {
	mon := protocol.NewApprox(eng, k, e)
	outs := make([][]int, 0, len(trace))
	for t, vals := range trace {
		eng.Advance(vals)
		if t == 0 {
			mon.Start()
		} else {
			mon.HandleStep()
		}
		eng.EndStep()
		outs = append(outs, append([]int(nil), mon.Output()...))
	}
	return outs, *eng.Counters(), mon.Epochs()
}

// facadeRun pushes the same trace through the public API, one UpdateBatch
// per step, constructing engine and monitor through the public options.
func facadeRun(t *testing.T, trace [][]int64, k int, e eps.Eps, seed uint64,
	opts ...topk.Option) ([][]int, topk.Cost, int64, *topk.Monitor) {
	t.Helper()
	n := len(trace[0])
	opts = append([]topk.Option{topk.WithNodes(n), topk.WithSeed(seed)}, opts...)
	m, err := topk.New(k, topk.WrapEps(e), opts...)
	if err != nil {
		t.Fatalf("topk.New: %v", err)
	}
	outs := make([][]int, 0, len(trace))
	batch := make([]topk.Update, 0, n)
	for _, vals := range trace {
		batch = batch[:0]
		for i, v := range vals {
			batch = append(batch, topk.Update{Node: i, Value: v})
		}
		if err := m.UpdateBatch(batch); err != nil {
			t.Fatalf("UpdateBatch: %v", err)
		}
		outs = append(outs, m.TopK(nil))
	}
	return outs, m.Cost(), m.Epochs(), m
}

// mkTrace pre-generates a drifting-walk trace so every run sees identical
// data.
func mkTrace(n, steps int, seed uint64) [][]int64 {
	gen := stream.NewWalk(n, 100000, 400, 1<<24, seed)
	trace := make([][]int64, steps)
	for t := range trace {
		trace[t] = gen.Next(t)
	}
	return trace
}

// TestFacadeEquivalence is the acceptance proof of the push API: a
// facade-driven run (UpdateBatch per step, engine and monitor built through
// the public options) is byte-identical — per-step outputs, full counter
// snapshot including kinds, rounds, bits, and index fallbacks, and epoch
// count — to driving the engines directly, at n ∈ {16, 1024} on both
// engines.
func TestFacadeEquivalence(t *testing.T) {
	const k = 4
	const seed = 42
	e := eps.MustNew(1, 8)
	cases := []struct {
		n, steps int
	}{
		{16, 200},
		{1024, 40},
	}
	for _, tc := range cases {
		trace := mkTrace(tc.n, tc.steps, 7)

		t.Run(fmt.Sprintf("lockstep/n=%d", tc.n), func(t *testing.T) {
			wantOuts, wantSnap, wantEpochs := directRun(lockstep.New(tc.n, seed), trace, k, e)
			gotOuts, gotCost, gotEpochs, m := facadeRun(t, trace, k, e, seed)
			defer m.Close()
			assertEquivalent(t, wantOuts, wantSnap, wantEpochs, gotOuts, gotCost, gotEpochs)
		})

		t.Run(fmt.Sprintf("live/n=%d", tc.n), func(t *testing.T) {
			direct := live.New(tc.n, seed, live.WithShards(4))
			defer direct.Close()
			wantOuts, wantSnap, wantEpochs := directRun(direct, trace, k, e)
			gotOuts, gotCost, gotEpochs, m := facadeRun(t, trace, k, e, seed,
				topk.WithEngine(topk.Live), topk.WithShards(4))
			defer m.Close()
			assertEquivalent(t, wantOuts, wantSnap, wantEpochs, gotOuts, gotCost, gotEpochs)
		})
	}
}

func assertEquivalent(t *testing.T, wantOuts [][]int, want metrics.Counters, wantEpochs int64,
	gotOuts [][]int, got topk.Cost, gotEpochs int64) {
	t.Helper()
	if !reflect.DeepEqual(wantOuts, gotOuts) {
		for i := range wantOuts {
			if !reflect.DeepEqual(wantOuts[i], gotOuts[i]) {
				t.Fatalf("outputs diverge first at step %d: direct=%v facade=%v", i, wantOuts[i], gotOuts[i])
			}
		}
		t.Fatalf("outputs diverge: %v vs %v", wantOuts, gotOuts)
	}
	if want.Total() != got.Messages {
		t.Errorf("total messages: direct=%d facade=%d", want.Total(), got.Messages)
	}
	if want.ByChannel(metrics.NodeToServer) != got.NodeToServer ||
		want.ByChannel(metrics.ServerToNode) != got.Unicasts ||
		want.ByChannel(metrics.Broadcast) != got.Broadcasts {
		t.Errorf("channel split diverges: direct=%+v facade=%+v", want, got)
	}
	if want.MaxRoundsPerStep() != got.MaxRoundsPerStep {
		t.Errorf("max rounds: direct=%d facade=%d", want.MaxRoundsPerStep(), got.MaxRoundsPerStep)
	}
	if want.MaxBits() != got.MaxMessageBits {
		t.Errorf("max bits: direct=%d facade=%d", want.MaxBits(), got.MaxMessageBits)
	}
	if want.IndexFallbacks() != got.IndexFallbacks {
		t.Errorf("index fallbacks: direct=%d facade=%d", want.IndexFallbacks(), got.IndexFallbacks)
	}
	if wantEpochs != gotEpochs {
		t.Errorf("epochs: direct=%d facade=%d", wantEpochs, gotEpochs)
	}
}

// TestUpdateRoundRobinMatchesBatch: fine-grained Update pushes that cycle
// through all nodes form the same steps — and therefore the same outputs
// and bills — as explicit UpdateBatch calls, once the trailing partial
// batch is Flushed.
func TestUpdateRoundRobinMatchesBatch(t *testing.T) {
	const n, k, steps = 16, 3, 120
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 11)

	_, wantCost, _, mb := facadeRun(t, trace, k, e, 5)
	defer mb.Close()

	mu, err := topk.New(k, topk.WrapEps(e), topk.WithNodes(n), topk.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer mu.Close()
	for _, vals := range trace {
		for i, v := range vals {
			// Re-pushing node 0 auto-commits the previous step's batch.
			if err := mu.Update(i, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mu.Flush(); err != nil { // commit the last staged batch
		t.Fatal(err)
	}
	gotCost := mu.Cost()
	if gotCost != wantCost {
		t.Errorf("round-robin Update cost %+v\nwant (UpdateBatch) %+v", gotCost, wantCost)
	}
	if want, got := mb.TopK(nil), mu.TopK(nil); !reflect.DeepEqual(want, got) {
		t.Errorf("outputs diverge: batch=%v update=%v", want, got)
	}
}

// TestFacadeResetReplaysFresh: after Reset(seed), replaying the same pushes
// yields the same outputs and bill as the first session — the facade-level
// form of the engines' Reset byte-equality property.
func TestFacadeResetReplaysFresh(t *testing.T) {
	const n, k, steps = 32, 4, 150
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 23)

	run := func(m *topk.Monitor) ([]int, topk.Cost) {
		t.Helper()
		batch := make([]topk.Update, 0, n)
		for _, vals := range trace {
			batch = batch[:0]
			for i, v := range vals {
				batch = append(batch, topk.Update{Node: i, Value: v})
			}
			if err := m.UpdateBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		return m.TopK(nil), m.Cost()
	}

	m, err := topk.New(k, topk.WrapEps(e), topk.WithNodes(n), topk.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	out1, cost1 := run(m)

	// Stage a push that Reset must discard, then rewind and replay.
	if err := m.Update(3, 123); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(9); err != nil {
		t.Fatal(err)
	}
	if got := m.Steps(); got != 0 {
		t.Fatalf("Steps after Reset = %d, want 0", got)
	}
	out2, cost2 := run(m)

	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("outputs diverge after Reset: %v vs %v", out1, out2)
	}
	if cost1 != cost2 {
		t.Errorf("cost diverges after Reset:\nfirst  %+v\nsecond %+v", cost1, cost2)
	}
}
