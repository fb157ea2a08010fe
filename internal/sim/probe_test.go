package sim

import (
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/cluster"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/topk"
)

// TestProbesMatchLoop runs every fault-free row of the chain's table on
// lockstep and on live × 3 shards through chaintest.ProbeChecker: every
// epoch opening of every monitor that probes (all but Naive) returns the
// repeated-FindMax loop's nodes, in the loop's order, and the checked run
// records what the row's reference run records.
func TestProbesMatchLoop(t *testing.T) {
	engines := []struct {
		name string
		mk   func(n int, seed uint64) (cluster.Engine, func())
	}{
		{"lockstep", func(n int, seed uint64) (cluster.Engine, func()) { return lockstep.New(n, seed), func() {} }},
		{"live/m=3", func(n int, seed uint64) (cluster.Engine, func()) {
			e := live.New(n, seed, live.WithShards(3))
			return e, e.Close
		}},
	}
	for _, r := range chaintest.Table {
		if r.Faults != nil {
			continue
		}
		r.Pin = 0
		ref := r.Reference()
		for _, eng := range engines {
			t.Run(r.Name+"/"+eng.name, func(t *testing.T) {
				e, done := eng.mk(r.N, r.Seed)
				defer done()
				pc := chaintest.NewProbeChecker(e)
				chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, pc).Step))
				if pc.Err != nil {
					t.Fatal(pc.Err)
				}
				if pc.Checked == 0 && r.Algo != topk.Naive {
					t.Fatal("the run opened no epoch")
				}
			})
		}
	}
}
