package sim

import (
	"fmt"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// TestRegressionSubLowerHalfTagRestore pins the fix for a tag/set divergence
// bug: when SUBPROTOCOL terminated through an emptied L′ lower half, S′2 was
// disbanded before subEnd diffed the primed sets against the DENSE sets, so
// the restore skipped the physical retag of S′2 members — leaving a node
// filtered as a non-output V2∩S2 member while the server's sets placed it
// in the output. Caught originally by the E8 validator at ε=1/64.
func TestRegressionSubLowerHalfTagRestore(t *testing.T) {
	const k, steps = 4, 60
	e := eps.MustNew(1, 64)
	gen := stream.NewOscillator(k-1, 16, 8, 65536, 65536*3/100, 65536*64, 65536/64, 501)
	runInvariantChecked(t, gen, k, e, steps, 30)
}

// TestApproxInvariantStress sweeps seeds and ε values, checking after every
// single processed violation that node tags match the server-side set
// classification, and after every step that the output is ε-valid.
func TestApproxInvariantStress(t *testing.T) {
	const k, steps = 3, 200
	for _, ed := range []int64{2, 4, 16, 64, 256} {
		e := eps.MustNew(1, ed)
		for seed := uint64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("eps=1_%d/seed=%d", ed, seed), func(t *testing.T) {
				gen := stream.NewOscillator(k-1, 12, 6, 50000, 50000*4/100, 50000*64, 700, seed*17+3)
				runInvariantChecked(t, gen, k, e, steps, seed)
			})
		}
	}
}

// tagsOf reads every node's tag through the engine's white-box Node
// accessor, outside the cluster interfaces.
func tagsOf(eng *lockstep.Engine) []wire.Tag {
	out := make([]wire.Tag, eng.N())
	for i := range out {
		out[i] = eng.Node(i).Tag
	}
	return out
}

func runInvariantChecked(t *testing.T, gen stream.Generator, k int, e eps.Eps, steps int, seed uint64) {
	t.Helper()
	eng := lockstep.New(gen.N(), seed)
	_, err := Run(Config{K: k, Eps: e, Steps: steps, Seed: seed, Gen: gen, Engine: eng, Validate: ValidateEps,
		NewMonitor: func(c cluster.Cluster) protocol.Monitor {
			ap := protocol.NewApprox(c, k, e)
			ap.AfterHandle = func(rep wire.Report) {
				if err := ap.CheckInvariants(tagsOf(eng)); err != nil {
					t.Fatalf("invariant after violation (node %d %v): %v", rep.ID, rep.Dir, err)
				}
			}
			return ap
		}})
	if err != nil {
		t.Fatal(err)
	}
}
