package exp

import (
	"fmt"
	"math"

	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// E1Existence reproduces Lemma 3.1: the EXISTENCE protocol decides the
// disjunction with O(1) messages in expectation (the paper's bound is ≤ 6),
// independent of n and of the number b of ones.
func E1Existence() Experiment {
	return Experiment{
		ID:      "E1",
		Title:   "EXISTENCE protocol expected messages",
		Claim:   "Lemma 3.1: O(1) messages in expectation (≈ ≤ 6), any n, any b ≥ 1",
		Verdict: verdictE1,
		Run: func(o Options) []*metrics.Table {
			ns := []int{16, 256, 4096, 65536}
			trials := 400
			if o.Quick {
				ns = []int{16, 1024}
				trials = 80
			}
			tb := metrics.NewTable("E1: EXISTENCE mean messages (per sweep, incl. halt)",
				"n", "b=1", "b=sqrt(n)", "b=n/2", "b=n")
			for _, n := range ns {
				row := []any{n}
				for _, b := range []int{1, int(math.Sqrt(float64(n))), n / 2, n} {
					row = append(row, existenceMean(o, n, b, trials))
				}
				tb.AddRow(row...)
			}
			return []*metrics.Table{tb}
		},
	}
}

// trialCtx is one micro-experiment worker's reusable state: the shared
// engCtx engine cache plus a value vector. E1 leaves vals all-zero across
// trials; E2 refills it per trial.
type trialCtx struct {
	engCtx
	vals []int64
}

func existenceMean(o Options, n, b, trials int) float64 {
	// Each trial's engine state depends only on its own index-derived seed
	// (engine reuse via Reset), so the fan-out cannot change the outcome.
	costs := parMapWith(o, trials,
		func() *trialCtx { return &trialCtx{vals: make([]int64, n)} },
		func(c *trialCtx, trial int) int64 {
			e := c.reset(n, o.Seed+uint64(trial)*977+uint64(n))
			e.Advance(c.vals)
			// b nodes hold a "1": realised as a violating filter, assigned
			// through the engine (so its filter mirror stays consistent);
			// the copy below excludes the assignment messages.
			for i := 0; i < b; i++ {
				e.SetFilter(i, filter.Make(5, 10))
			}
			before := *e.Counters()
			if senders := e.Sweep(wire.Violating()); len(senders) == 0 {
				panic("exp: EXISTENCE missed b ≥ 1 ones")
			}
			return e.Counters().Sub(before).Total()
		})
	var total int64
	for _, c := range costs {
		total += c
	}
	return float64(total) / float64(trials)
}

// E2MaxFind reproduces Lemma 2.6: computing the node holding the maximum
// costs O(log n) messages in expectation.
func E2MaxFind() Experiment {
	return Experiment{
		ID:      "E2",
		Title:   "Maximum computation expected messages",
		Claim:   "Lemma 2.6: O(log n) messages in expectation",
		Verdict: verdictE2,
		Run: func(o Options) []*metrics.Table {
			ns := []int{16, 64, 256, 1024, 4096}
			trials := 200
			if o.Quick {
				ns = []int{16, 256}
				trials = 40
			}
			tb := metrics.NewTable("E2: FindMax mean messages vs n",
				"n", "log2(n)", "mean msgs", "msgs/log2(n)")
			for _, n := range ns {
				costs := parMapWith(o, trials,
					func() *trialCtx { return &trialCtx{vals: make([]int64, n)} },
					func(c *trialCtx, trial int) int64 {
						e := c.reset(n, o.Seed+uint64(trial)*31+uint64(n))
						r := rngx.New(uint64(trial)*7 + uint64(n))
						for i := range c.vals {
							c.vals[i] = r.Int63n(1 << 30)
						}
						e.Advance(c.vals)
						before := *e.Counters()
						if _, ok := protocol.FindMax(e, true); !ok {
							panic("exp: FindMax failed")
						}
						return e.Counters().Sub(before).Total()
					})
				var total int64
				for _, c := range costs {
					total += c
				}
				mean := float64(total) / float64(trials)
				lg := math.Log2(float64(n))
				tb.AddRow(n, lg, mean, mean/lg)
			}
			return []*metrics.Table{tb}
		},
	}
}

// E10Compliance checks the model constraints across representative runs: no
// message exceeds O(log n + log Δ) bits and every protocol invocation
// (EXISTENCE sweep, collect, probe) takes O(log n) rounds. Total rounds per
// time step additionally scale with the number of violations processed —
// inherent to the paper's one-violation-at-a-time handling — so they are
// reported as observed alongside a (violations·log n) reference.
func E10Compliance() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Model compliance: message size and rounds",
		Claim: "Section 2 model: log-size messages; O(log n)-round protocol invocations",
		Run: func(o Options) []*metrics.Table {
			type probe struct {
				name  string
				n     int
				maxV  int64
				steps int
			}
			probes := []probe{
				{"small", 16, 1 << 16, 300},
				{"wide", 64, 1 << 36, 300},
			}
			if o.Quick {
				probes = probes[:1]
				probes[0].steps = 100
			}
			tb := metrics.NewTable("E10: message-size bound and per-sweep rounds",
				"config", "n", "log2(Δ)", "max msg bits", "bit bound c·log(nΔ)",
				"rounds/sweep (γ+1)", "max rounds/step (observed)")
			reps := parMap(o, len(probes), func(i int) compliance {
				p := probes[i]
				return complianceRun(p.n, p.maxV, p.steps, o.Seed)
			})
			for i, p := range probes {
				logND := math.Log2(float64(p.n)) + math.Log2(float64(p.maxV))
				tb.AddRow(p.name, p.n, math.Log2(float64(p.maxV)),
					reps[i].bits, fmt.Sprintf("%.0f", 24*logND),
					nodecore.ExistenceRounds(p.n)+1, reps[i].rounds)
			}
			return []*metrics.Table{tb}
		},
	}
}

type compliance struct {
	rounds int64
	bits   int
}

func complianceRun(n int, maxV int64, steps int, seed uint64) compliance {
	// A hostile workload maximises per-step protocol work.
	rep := runOrPanic(complianceConfig(n, maxV, steps, seed))
	return compliance{rounds: rep.Messages.MaxRoundsPerStep(), bits: rep.Messages.MaxBits()}
}
