package live_test

import (
	"fmt"
	"runtime"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/cluster"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/wire"
	"topkmon/topk"
)

// TestLockstepEquivalence is the live link of the chain: the same seed,
// trace and monitor on both engines must record the same thing at every
// step — outputs, node values, filters, tags, the whole counter set,
// epochs and Check — proving the two engines implement the same model.
// The walk this test ran before the table runs under each of its four
// algorithms at one worker for all nodes, an uneven multi-shard split,
// and one shard per node, on both dispatches; every fault-free table row
// runs at an uneven split, sparse rows through AdvanceDirty.
func TestLockstepEquivalence(t *testing.T) {
	kept := chaintest.Kept("live")
	for _, name := range []string{"exact-mid", "topk", "approx", "half-eps"} {
		r := kept
		r.Algo, _ = topk.ParseAlgorithm(name)
		ref := r.Reference()
		for _, m := range []int{1, 5, r.N} {
			for _, d := range live.Dispatches {
				t.Run(fmt.Sprintf("%s/m=%d%s", name, m, d.Suffix), func(t *testing.T) {
					eng := live.New(r.N, r.Seed, append(d.Opts, live.WithShards(m))...)
					defer eng.Close()
					chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, eng).Step))
				})
			}
		}
	}
	for _, r := range chaintest.Rows(chaintest.Live) {
		t.Run(r.Name+"/m=3", func(t *testing.T) {
			eng := live.New(r.N, r.Seed, live.WithShards(3))
			defer eng.Close()
			ref := r.Reference()
			chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, eng).Step))
		})
	}
}

// TestLockstepEquivalenceLargeN raises the live link to n = 10⁴ nodes,
// where any ordering or lost hand-off bug in the worker delivery would
// surface. Worker shards (m ≪ n) are what makes this scale bearable: under
// /workers each call wakes at most 8 workers instead of 10⁴ goroutines.
func TestLockstepEquivalenceLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n equivalence is CI-sized; skipped under -short")
	}
	r := chaintest.Kept("live/large")
	ref := r.Reference()
	for _, d := range live.Dispatches {
		t.Run("m=8"+d.Suffix, func(t *testing.T) {
			eng := live.New(r.N, r.Seed, append(d.Opts, live.WithShards(8))...)
			defer eng.Close()
			chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, eng).Step))
		})
	}
}

// TestResetMatchesFresh is the reset link, on both engines: an engine that
// has run a complete session under another seed and is then Reset(seed)
// must record what a fresh lockstep engine with that seed records — every counter, and every draw from the server stream. A
// second Reset replays the run again: Reset leaves no residue of the run it
// just hosted. The sharded layouts are covered because Reset must rewind
// their shard value indexes and report lists too.
func TestResetMatchesFresh(t *testing.T) {
	mkLive := func(m int, opts ...live.Option) func(n int, seed uint64) cluster.Engine {
		return func(n int, seed uint64) cluster.Engine {
			c := live.New(n, seed, append(opts, live.WithShards(m))...)
			t.Cleanup(c.Close)
			return c
		}
	}
	engines := map[string]func(n int, seed uint64) cluster.Engine{
		"lockstep":   func(n int, seed uint64) cluster.Engine { return lockstep.New(n, seed) },
		"live/m=1":   mkLive(1),
		"live/m=2":   mkLive(2),
		"live/m=cpu": mkLive(runtime.NumCPU()),
		// Every call through the worker goroutines (the entries above run
		// theirs on the caller at this n).
		"live/m=2/workers": mkLive(2, live.WithGrain(0)),
	}
	// check runs r's trace on an engine built with the next seed, then
	// resets it to r's seed.
	check := func(t *testing.T, mk func(int, uint64) cluster.Engine, r chaintest.Row, ref chaintest.Ref) {
		eng := mk(r.N, r.Seed+1)
		chaintest.Run(ref.Trace, chaintest.NewDirect(r, eng).Step)
		for range 2 {
			eng.Reset(r.Seed)
			chaintest.Same(t, ref.Obs, chaintest.Run(ref.Trace, chaintest.NewDirect(r, eng).Step))
		}
	}
	kept := chaintest.Kept("reset")
	ref := kept.Reference()
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) { check(t, mk, kept, ref) })
	}
	for _, r := range chaintest.Rows(chaintest.Reset) {
		ref := r.Reference()
		t.Run(r.Name+"/live/m=2", func(t *testing.T) { check(t, engines["live/m=2"], r, ref) })
	}
}

// TestLiveDenseInvariants runs the DENSE/SUB tag-vs-set invariant checker on
// the goroutine engine after every processed violation — the live twin of
// the lockstep invariant stress, guarding against engine-specific state
// divergence (ordering, races, lost hand-offs) — and checks every output.
func TestLiveDenseInvariants(t *testing.T) {
	r := chaintest.Kept("live/invariants")
	eng := live.New(r.N, r.Seed)
	defer eng.Close()
	d := chaintest.NewDirect(r, eng)
	ap := d.Monitor().(*protocol.Approx)
	tags := make([]wire.Tag, r.N)
	ap.AfterHandle = func(rep wire.Report) {
		for i := range tags {
			tags[i] = eng.Node(i).Tag
		}
		if err := ap.CheckInvariants(tags); err != nil {
			t.Fatalf("invariant after violation (node %d %v): %v", rep.ID, rep.Dir, err)
		}
	}
	for i, o := range chaintest.Run(r.Reference().Trace, d.Step) {
		if o.Check != "ok" {
			t.Fatalf("step %d: %s", i, o.Check)
		}
	}
}
