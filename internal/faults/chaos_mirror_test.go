package faults

import (
	"fmt"
	"reflect"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// TestChaosMirrorMatchesFullScan is the mid-chaos twin of the lockstep
// index-equivalence suite: an indexed engine and a full-scan engine, each
// wrapped with the SAME fault plan (delayed filter assignments, drops,
// dups, crash windows), replay an identical op script heavy on filter
// churn and violation sweeps. At every op the perturbed reports must match
// byte for byte, the desync detector must latch at the same steps, and the
// final counters (model messages AND fault accounting) must be equal —
// i.e. the filter-interval mirror never diverges from ground truth even
// while the fault layer is reordering, losing, and delaying the very
// assignments it mirrors. The injector's coins stay aligned across the two
// runs precisely BECAUSE the report sequences are identical; a single
// divergent report would cascade into a loud counter mismatch.
func TestChaosMirrorMatchesFullScan(t *testing.T) {
	const n, steps = 41, 120
	plans := map[string]*Plan{
		"delay-only":         {Delay: 0.6},
		"delay-certain":      {Delay: 1},
		"delay+drop":         {Delay: 0.5, Drop: 0.25, Dup: 0.05},
		"delay+crashes":      {Delay: 0.4, Crashes: []Crash{{Node: 3, From: 10, Until: 50}, {Node: 17, From: 40, Until: 90}}},
		"drop+crashes":       {Drop: 0.3, Crashes: []Crash{{Node: 0, From: 5, Until: 115}}},
		"everything-at-once": {Drop: 0.2, Dup: 0.1, Delay: 0.7, Crashes: []Crash{{Node: 8, From: 30, Until: 70}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				indexed := Wrap(lockstep.New(n, seed), plan, seed)
				full := lockstep.New(n, seed)
				full.SetFullScan(true)
				ref := Wrap(full, plan, seed)

				r := rngx.New(seed * 7919)
				vals := make([]int64, n)
				for step := 0; step < steps; step++ {
					for i := range vals {
						vals[i] = r.Int63n(256)
					}
					indexed.Advance(vals)
					ref.Advance(vals)

					// Filter churn through the injector: unicasts that may
					// be delayed or dropped, and periodic broadcast rules
					// that re-derive most filters at once.
					if step%3 == 0 {
						id, lo := r.Intn(n), r.Int63n(256)
						iv := filter.Make(lo, lo+r.Int63n(32))
						indexed.SetFilter(id, iv)
						ref.SetFilter(id, iv)
					}
					if step%5 == 2 {
						lo := r.Int63n(256)
						rule := new(wire.FilterRule).
							With(wire.TagNone, filter.Make(lo, lo+64)).
							With(wire.TagRest, filter.All)
						indexed.BroadcastRule(rule)
						ref.BroadcastRule(rule)
					}
					if step%11 == 6 {
						id := r.Intn(n)
						tag := wire.Tag(r.Intn(int(wire.NumTags)))
						indexed.SetTagFilter(id, tag, filter.All)
						ref.SetTagFilter(id, tag, filter.All)
					}

					mustEq := func(what string, a, b interface{}) {
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("%s seed %d step %d: %s diverge:\nfull scan %v\nmirror    %v",
								name, seed, step, what, b, a)
						}
					}
					mustEq("violation sweep reports",
						append([]wire.Report(nil), indexed.Sweep(wire.Violating())...),
						append([]wire.Report(nil), ref.Sweep(wire.Violating())...))
					gotRep, gotOK := indexed.DetectViolation()
					wantRep, wantOK := ref.DetectViolation()
					mustEq("DetectViolation", fmt.Sprint(gotRep, gotOK), fmt.Sprint(wantRep, wantOK))
					p := wire.InRange(r.Int63n(256), 300)
					mustEq("collect reports",
						append([]wire.Report(nil), indexed.Collect(p)...),
						append([]wire.Report(nil), ref.Collect(p)...))
					mustEq("desync latch", indexed.TakeDesync(), ref.TakeDesync())

					indexed.EndStep()
					ref.EndStep()
				}
				a, b := *indexed.Counters(), *ref.Counters()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s seed %d: final counters diverge:\nfull scan %+v\nmirror    %+v",
						name, seed, b, a)
				}
				if a.IndexFallbacks() != 0 {
					t.Fatalf("%s seed %d: %d index fallbacks on a violation/interval-only script, want 0",
						name, seed, a.IndexFallbacks())
				}
			}
		})
	}
}
