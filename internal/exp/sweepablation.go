package exp

import (
	"topkmon/internal/eps"
	"topkmon/internal/metrics"
	"topkmon/internal/sim"
	"topkmon/internal/stream"
)

// E11SweepAblation isolates the EXISTENCE protocol's contribution (the
// Section 3 tool behind Corollaries 3.2/3.3): the same monitor on the same
// hostile workload, with violation reporting done either by the Lemma 3.1
// randomized sweep or by naive direct reporting (every violator sends every
// sweep). With bursts of simultaneous violations the naive scheme pays
// per violator per processed violation — quadratic in the burst size —
// while EXISTENCE keeps each processing round at O(1) expected messages.
func E11SweepAblation() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Ablation: EXISTENCE sweep vs naive direct reporting",
		Claim: "Section 3 / Cor 3.2: randomized reporting keeps violation bursts at O(1) msgs each",
		Run: func(o Options) []*metrics.Table {
			const k = 4
			e := eps.MustNew(1, 8)
			ns := []int{16, 32, 64, 128}
			steps := 400
			if o.Quick {
				ns = []int{16, 64}
				steps = 120
			}
			tb := metrics.NewTable("E11: violation reporting cost (uniform jumps, k=4, ε=1/8)",
				"n", "existence msgs", "direct msgs", "direct/existence",
				"existence reports", "direct reports")
			// Jobs: (n, reporting scheme) pairs, all independent; each
			// worker reuses one engine via Reset (rebuilt only when the
			// job's n differs from the previous one).
			reps := parMapWith(o, len(ns)*2,
				func() *engCtx { return &engCtx{} },
				func(ctx *engCtx, i int) sim.Report {
					n := ns[i/2]
					eng := ctx.reset(n, o.Seed+41)
					eng.DirectReports = i%2 == 1
					return runOrPanic(sim.Config{
						K: k, Eps: e, Steps: steps, Seed: o.Seed + 41,
						Gen:        stream.NewJumps(n, 1000, 1<<20, o.Seed+900+uint64(n)),
						NewMonitor: mkMonitor("approx", k, e),
						Validate:   sim.ValidateEps,
						Engine:     eng,
					})
				})
			for i, n := range ns {
				ex, dr := reps[2*i], reps[2*i+1]
				tb.AddRow(n, ex.Messages.Total(), dr.Messages.Total(),
					ratio(dr.Messages.Total(), ex.Messages.Total()),
					ex.Messages.ByKind("existence-report"),
					dr.Messages.ByKind("existence-report"))
			}
			return []*metrics.Table{tb}
		},
	}
}
