package live

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// traceString runs a full monitoring session on eng and serialises
// everything observable about it — per-step monitor outputs, node values,
// filters, tags, and the complete counter snapshot — into one string, the
// engine's "trace" for byte-identity comparisons.
func traceString(eng cluster.Engine, trace [][]int64, k int, e eps.Eps) string {
	var b strings.Builder
	mon := protocol.NewApprox(eng, k, e)
	for ti, vals := range trace {
		eng.Advance(vals)
		if ti == 0 {
			mon.Start()
		} else {
			mon.HandleStep()
		}
		eng.EndStep()
		snap := eng.Counters().Snapshot()
		fmt.Fprintf(&b, "step %d out=%v vals=%v filters=%v tags=%v total=%d kinds=%v rounds=%d bits=%d\n",
			ti, mon.Output(), valuesOf(eng), eng.FiltersInto(nil), tagsOf(eng),
			snap.Total(), snap.ByKind, snap.MaxRounds, snap.MaxBits)
	}
	return b.String()
}

func makeTrace(n, steps int, seed uint64) [][]int64 {
	gen := stream.NewWalk(n, 5000, 300, 1<<20, seed)
	out := make([][]int64, steps)
	for t := range out {
		out[t] = gen.Next(t)
	}
	return out
}

// TestResetMatchesFresh is the Reset property test for both engines: an
// engine that has already run a complete (different-seed) monitoring
// session and is then Reset(seed) must produce a byte-identical trace to a
// freshly constructed engine with that seed — including all counter state
// and every server- and node-side coin flip.
func TestResetMatchesFresh(t *testing.T) {
	const n, k, steps = 24, 4, 120
	const warmSeed, runSeed = 11, 77
	e := eps.MustNew(1, 6)
	warmTrace := makeTrace(n, steps, 3)
	runTrace := makeTrace(n, steps, 9)

	// Reset must rewind every sharded layout identically: the shard value
	// indexes and per-shard report lists are part of the state it covers.
	mkLive := func(m int, opts ...Option) func(seed uint64) (cluster.Engine, func()) {
		return func(seed uint64) (cluster.Engine, func()) {
			c := New(n, seed, append(opts, WithShards(m))...)
			return c, c.Close
		}
	}
	engines := map[string]func(seed uint64) (cluster.Engine, func()){
		"lockstep": func(seed uint64) (cluster.Engine, func()) {
			return lockstep.New(n, seed), func() {}
		},
		"live/m=1":   mkLive(1),
		"live/m=2":   mkLive(2),
		"live/m=cpu": mkLive(runtime.NumCPU()),
		// Every call through the worker goroutines (the entries above run
		// theirs on the caller at this n).
		"live/m=2/workers": mkLive(2, WithGrain(0)),
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			fresh, closeFresh := mk(runSeed)
			defer closeFresh()
			want := traceString(fresh, runTrace, k, e)

			warm, closeWarm := mk(warmSeed)
			defer closeWarm()
			traceString(warm, warmTrace, k, e) // dirty every piece of engine state
			warm.Reset(runSeed)
			got := traceString(warm, runTrace, k, e)
			if got != want {
				t.Errorf("reset trace diverges from fresh trace:\n%s", firstDiff(want, got))
			}

			// A second Reset replays the identical run again: Reset leaves
			// no residue of the run it just hosted.
			warm.Reset(runSeed)
			if again := traceString(warm, runTrace, k, e); again != want {
				t.Errorf("second reset diverges:\n%s", firstDiff(want, again))
			}
		})
	}
}

// TestResetIsFullRewind pins the cheap observables directly: counters
// emptied, values zeroed, filters all-admitting, tags cleared.
func TestResetIsFullRewind(t *testing.T) {
	const n = 8
	engines := map[string]func() (cluster.Engine, func()){
		"lockstep": func() (cluster.Engine, func()) { return lockstep.New(n, 5), func() {} },
		"live/m=1": func() (cluster.Engine, func()) {
			c := New(n, 5, WithShards(1))
			return c, c.Close
		},
		"live/m=2": func() (cluster.Engine, func()) {
			c := New(n, 5, WithShards(2))
			return c, c.Close
		},
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			vals := []int64{8, 7, 6, 5, 4, 3, 2, 1}
			eng.Advance(vals)
			eng.Probe(0)
			eng.Sweep(wire.Violating())
			eng.EndStep()
			eng.Reset(99)
			if got := eng.Counters().Snapshot().Total(); got != 0 {
				t.Errorf("messages after reset = %d, want 0", got)
			}
			if got := eng.Counters().Steps(); got != 0 {
				t.Errorf("steps after reset = %d, want 0", got)
			}
			for i, v := range valuesOf(eng) {
				if v != 0 {
					t.Errorf("node %d value = %d after reset, want 0", i, v)
				}
			}
		})
	}
}

func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n want %q\n got  %q", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(w), len(g))
}
