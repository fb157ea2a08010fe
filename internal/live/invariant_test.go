package live

import (
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// TestLiveDenseInvariants runs the DENSE/SUB tag-vs-set invariant checker on
// the goroutine engine after every processed violation — the live twin of
// the lockstep invariant stress, guarding against engine-specific state
// divergence (ordering, races, lost directives).
func TestLiveDenseInvariants(t *testing.T) {
	const n, k, steps = 20, 3, 150
	e := eps.MustNew(1, 4)
	gen := stream.NewOscillator(k-1, 13, 4, 20000, 20000*4/100, 2000000, 300, 9)
	eng := New(gen.N(), 41)
	defer eng.Close()
	ap := protocol.NewApprox(eng, k, e)
	ap.AfterHandle = func(rep wire.Report) {
		if err := ap.CheckInvariants(tagsOf(eng)); err != nil {
			t.Fatalf("invariant after violation (node %d %v): %v", rep.ID, rep.Dir, err)
		}
	}
	for ts := 0; ts < steps; ts++ {
		vals := gen.Next(ts)
		eng.Advance(vals)
		if ts == 0 {
			ap.Start()
		} else {
			ap.HandleStep()
		}
		truth := oracle.Compute(vals, k, e)
		if err := truth.ValidateEps(ap.Output()); err != nil {
			t.Fatalf("step %d: %v", ts, err)
		}
		eng.EndStep()
	}
}
