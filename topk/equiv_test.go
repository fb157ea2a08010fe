package topk_test

import (
	"reflect"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/topk"
)

// TestFacadeEquivalence is the acceptance proof of the push API and the
// facade link of the chain: a facade-driven run (one UpdateBatch per step,
// engine and monitor built through the public options) records, step for
// step, what driving the engine directly records — outputs, the whole Cost
// bill, epochs, the algorithm, Check and Health. The walks this test ran
// before the table (n ∈ {16, 1024}) run on both engines, and every table
// row on one; a fault-armed row is held to the facade on lockstep, and no
// step of it may fail Check while Health reads fresh.
func TestFacadeEquivalence(t *testing.T) {
	facadeEngines := []struct {
		name string
		opts []topk.Option
	}{{"lockstep", nil}, {"live", []topk.Option{topk.WithEngine(topk.Live), topk.WithShards(4)}}}
	run := func(t *testing.T, r chaintest.Row, ref chaintest.Ref, opts []topk.Option) {
		got := chaintest.RunFacade(r, ref.Trace, opts...)
		chaintest.Same(t, ref.Obs, got)
		if i := chaintest.SilentWrong(got); r.Faults != nil && i >= 0 {
			t.Fatalf("step %d: SILENT WRONG ANSWER: %+v", i, got[i])
		}
	}
	for _, name := range []string{"n=16", "n=1024"} {
		r := chaintest.Kept("facade/" + name)
		ref := r.Reference()
		for _, e := range facadeEngines {
			t.Run(e.name+"/"+name, func(t *testing.T) { run(t, r, ref, e.opts) })
		}
	}
	// A table row runs on lockstep, a sparse one on live, so AdvanceDirty
	// crosses the facade on both engines; so does a fault-armed one, which
	// lockstep would only hold to itself.
	for _, r := range chaintest.Rows(chaintest.Facade) {
		e := facadeEngines[0]
		if r.Sparse || r.Faults != nil {
			e = facadeEngines[1]
		}
		t.Run(r.Name+"/"+e.name, func(t *testing.T) { run(t, r, r.FacadeReference(), e.opts) })
	}
}

// TestUpdateRoundRobinMatchesBatch: fine-grained Update pushes that cycle
// through all nodes form the same steps — and therefore the same outputs
// and bills — as explicit UpdateBatch calls, once the trailing partial
// batch is Flushed.
func TestUpdateRoundRobinMatchesBatch(t *testing.T) {
	r := chaintest.Kept("facade/n=16")
	ref := r.Reference()
	want := ref.Obs[len(ref.Obs)-1]

	mu := chaintest.NewPusher(r).M
	defer mu.Close()
	for _, b := range ref.Trace {
		for i, v := range b.Vals {
			// Re-pushing node 0 auto-commits the previous step's batch.
			if err := mu.Update(i, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mu.Flush(); err != nil { // commit the last staged batch
		t.Fatal(err)
	}
	if got := mu.Cost(); got != want.Cost {
		t.Errorf("round-robin Update cost %+v\nwant (UpdateBatch) %+v", got, want.Cost)
	}
	if got := mu.TopK(nil); !reflect.DeepEqual(want.Out, got) {
		t.Errorf("outputs diverge: batch=%v update=%v", want.Out, got)
	}
}

// TestFacadeResetReplaysFresh: after Reset(seed), replaying the same pushes
// records the same steps as the first session — the facade-level form of
// the engines' Reset byte-equality property.
func TestFacadeResetReplaysFresh(t *testing.T) {
	r := chaintest.Kept("facade/n=16")
	ref := r.Reference()
	p := chaintest.NewPusher(r)
	defer p.M.Close()
	first := chaintest.Run(ref.Trace, p.Step)

	// Stage a push that Reset must discard, then rewind and replay.
	if err := p.M.Update(3, 123); err != nil {
		t.Fatal(err)
	}
	if err := p.M.Reset(r.Seed); err != nil {
		t.Fatal(err)
	}
	if got := p.M.Steps(); got != 0 {
		t.Fatalf("Steps after Reset = %d, want 0", got)
	}
	chaintest.Same(t, first, chaintest.Run(ref.Trace, p.Step))
}
