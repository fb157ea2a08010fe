package exp

import (
	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/sim"
	"topkmon/internal/stream"
)

// climberGen builds the adaptive worst case for separator search used by
// the Δ-dependence experiments: one adversarial node repeatedly ascends a
// gap of width ~Δ by always jumping just past its filter (stream.Climber).
func climberGen(k, rest int, delta int64) stream.Generator {
	return stream.NewClimber(k, rest, delta)
}

func complianceConfig(n int, maxV int64, steps int, seed uint64) sim.Config {
	k := 4
	e := eps.MustNew(1, 8)
	return sim.Config{
		K: k, Eps: e, Steps: steps, Seed: seed,
		Gen:        stream.NewJumps(n, maxV/2, maxV-1, seed+1),
		NewMonitor: mkMonitor("approx", k, e),
		Validate:   sim.ValidateEps,
	}
}

// E3ExactCompetitive reproduces Corollary 3.3: the exact monitor's messages
// per epoch grow linearly in log Δ (plus the k·log n probe), and the
// framework beats the probe-per-violation baseline.
func E3ExactCompetitive() Experiment {
	return Experiment{
		ID:      "E3",
		Title:   "Exact monitor: O(k log n + log Δ) per epoch",
		Claim:   "Corollary 3.3: O(k log n + log Δ)-competitive exact Top-k",
		Verdict: verdictE3,
		Run: func(o Options) []*metrics.Table {
			deltas := []int64{1 << 10, 1 << 16, 1 << 22, 1 << 28, 1 << 34}
			steps := 2500
			if o.Quick {
				deltas = []int64{1 << 10, 1 << 22}
				steps = 400
			}
			const k, rest = 4, 11 // n = 16
			tb := metrics.NewTable("E3: exact monitors vs Δ (n=16, k=4, adaptive climber)",
				"log2(Δ)", "exact-mid msgs", "epochs", "msgs/epoch",
				"mid-naive msgs", "OPT breaks", "exact-mid ratio")
			type e3row struct{ em, mn sim.Report }
			rows := parMapWith(o, len(deltas),
				func() *engCtx { return &engCtx{} },
				func(ctx *engCtx, i int) e3row {
					delta := deltas[i]
					emGen := climberGen(k, rest, delta)
					em := runOrPanic(sim.Config{
						K: k, Steps: steps, Seed: o.Seed + 3,
						Gen:        emGen,
						NewMonitor: mkMonitor("exact-mid", k, eps.Zero),
						Validate:   sim.ValidateExact,
						ComputeOPT: true, OPTEps: eps.Zero,
						Engine: ctx.reset(emGen.N(), o.Seed+3),
					})
					mnGen := climberGen(k, rest, delta)
					mn := runOrPanic(sim.Config{
						K: k, Steps: steps, Seed: o.Seed + 3,
						Gen:        mnGen,
						NewMonitor: mkMonitor("mid-naive", k, eps.Zero),
						Validate:   sim.ValidateExact,
						Engine:     ctx.reset(mnGen.N(), o.Seed+3),
					})
					return e3row{em, mn}
				})
			for i, delta := range deltas {
				em, mn := rows[i].em, rows[i].mn
				tb.AddRow(log2i(delta), em.Messages.Total(), em.Epochs,
					perEpoch(em.Messages.Total(), em.Epochs),
					mn.Messages.Total(),
					em.OPTBreaks, em.RatioLB)
			}
			return []*metrics.Table{tb}
		},
	}
}

// E4TopKProtocol reproduces Theorem 4.5: per epoch, TOP-K-PROTOCOL pays
// O(k log n + log log Δ + log 1/ε) — flat in Δ where the exact monitor grows
// with log Δ, and logarithmic in 1/ε.
func E4TopKProtocol() Experiment {
	return Experiment{
		ID:      "E4",
		Title:   "TOP-K-PROTOCOL: log log Δ and log 1/ε dependence",
		Claim:   "Theorem 4.5: O(k log n + log log Δ + log 1/ε) vs an exact offline OPT",
		Verdict: verdictE4,
		Run: func(o Options) []*metrics.Table {
			const k, rest = 4, 11 // n = 16
			e := eps.MustNew(1, 8)
			deltas := []int64{1 << 10, 1 << 16, 1 << 22, 1 << 28, 1 << 34}
			steps := 2500
			if o.Quick {
				deltas = []int64{1 << 10, 1 << 22}
				steps = 400
			}
			t1 := metrics.NewTable("E4a: msgs/epoch vs Δ (n=16, k=4, ε=1/8, adaptive descender)",
				"log2(Δ)", "exact-mid", "topk-protocol", "topk epochs")
			type e4row struct{ em, tk sim.Report }
			rows := parMapWith(o, len(deltas),
				func() *engCtx { return &engCtx{} },
				func(ctx *engCtx, i int) e4row {
					delta := deltas[i]
					emGen := stream.NewDescender(k, rest, delta)
					em := runOrPanic(sim.Config{
						K: k, Steps: steps, Seed: o.Seed + 5,
						Gen:        emGen,
						NewMonitor: mkMonitor("exact-mid", k, eps.Zero),
						Validate:   sim.ValidateExact,
						Engine:     ctx.reset(emGen.N(), o.Seed+5),
					})
					tkGen := stream.NewDescender(k, rest, delta)
					tk := runOrPanic(sim.Config{
						K: k, Eps: e, Steps: steps, Seed: o.Seed + 5,
						Gen:        tkGen,
						NewMonitor: mkMonitor("topk", k, e),
						Validate:   sim.ValidateEps,
						Engine:     ctx.reset(tkGen.N(), o.Seed+5),
					})
					return e4row{em, tk}
				})
			for i, delta := range deltas {
				em, tk := rows[i].em, rows[i].tk
				t1.AddRow(log2i(delta),
					perEpoch(em.Messages.Total(), em.Epochs),
					perEpoch(tk.Messages.Total(), tk.Epochs),
					tk.Epochs)
			}

			epsilons := []eps.Eps{
				eps.MustNew(1, 2), eps.MustNew(1, 4), eps.MustNew(1, 16),
				eps.MustNew(1, 64), eps.MustNew(1, 256),
			}
			if o.Quick {
				epsilons = epsilons[:3]
			}
			t2 := metrics.NewTable("E4b: msgs/epoch vs ε (n=16, k=4, Δ=2^22, adaptive climber)",
				"eps", "1/eps", "msgs", "epochs", "msgs/epoch")
			epsRows := parMapWith(o, len(epsilons),
				func() *engCtx { return &engCtx{} },
				func(ctx *engCtx, i int) sim.Report {
					ee := epsilons[i]
					gen := climberGen(k, rest, 1<<22)
					return runOrPanic(sim.Config{
						K: k, Eps: ee, Steps: steps, Seed: o.Seed + 6,
						Gen:        gen,
						NewMonitor: mkMonitor("topk", k, ee),
						Validate:   sim.ValidateEps,
						Engine:     ctx.reset(gen.N(), o.Seed+6),
					})
				})
			for i, ee := range epsilons {
				tk := epsRows[i]
				t2.AddRow(ee.String(), float64(ee.Den)/float64(ee.Num),
					tk.Messages.Total(), tk.Epochs,
					perEpoch(tk.Messages.Total(), tk.Epochs))
			}
			return []*metrics.Table{t1, t2}
		},
	}
}

// E9PhaseAblation isolates the contribution of phases A1/A2: disabling them
// degrades the per-epoch Δ-dependence from log log Δ back to log Δ.
func E9PhaseAblation() Experiment {
	return Experiment{
		ID:      "E9",
		Title:   "Ablation: phases A1/A2 give the log log Δ bound",
		Claim:   "Section 4 design: A1 (double-exponential) + A2 (geometric mean) vs plain bisection",
		Verdict: verdictE9,
		Run: func(o Options) []*metrics.Table {
			const k, rest = 4, 11 // n = 16
			e := eps.MustNew(1, 8)
			deltas := []int64{1 << 10, 1 << 16, 1 << 22, 1 << 28, 1 << 34}
			steps := 2500
			if o.Quick {
				deltas = []int64{1 << 10, 1 << 22}
				steps = 400
			}
			tb := metrics.NewTable("E9: TOP-K-PROTOCOL msgs/epoch, phases on vs off (adaptive descender)",
				"log2(Δ)", "full (A1+A2+A3)", "A3-only (ablated)", "full epochs", "ablated epochs")
			type e9row struct{ full, ablated sim.Report }
			rows := parMapWith(o, len(deltas),
				func() *engCtx { return &engCtx{} },
				func(ctx *engCtx, i int) e9row {
					delta := deltas[i]
					fullGen := stream.NewDescender(k, rest, delta)
					full := runOrPanic(sim.Config{
						K: k, Eps: e, Steps: steps, Seed: o.Seed + 8,
						Gen:        fullGen,
						NewMonitor: mkMonitor("topk", k, e),
						Validate:   sim.ValidateEps,
						Engine:     ctx.reset(fullGen.N(), o.Seed+8),
					})
					ablGen := stream.NewDescender(k, rest, delta)
					ablated := runOrPanic(sim.Config{
						K: k, Eps: e, Steps: steps, Seed: o.Seed + 8,
						Gen: ablGen,
						NewMonitor: func(c cluster.Cluster) protocol.Monitor {
							m := protocol.NewTopKProto(c, k, e)
							m.DisableA1 = true
							m.DisableA2 = true
							return m
						},
						Validate: sim.ValidateEps,
						Engine:   ctx.reset(ablGen.N(), o.Seed+8),
					})
					return e9row{full, ablated}
				})
			for i, delta := range deltas {
				full, ablated := rows[i].full, rows[i].ablated
				tb.AddRow(log2i(delta),
					perEpoch(full.Messages.Total(), full.Epochs),
					perEpoch(ablated.Messages.Total(), ablated.Epochs),
					full.Epochs, ablated.Epochs)
			}
			return []*metrics.Table{tb}
		},
	}
}

func log2i(x int64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
