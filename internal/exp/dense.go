package exp

import (
	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/sim"
	"topkmon/internal/stream"
)

// E5LowerBound realises the Theorem 5.1 adversary: any filter-based online
// algorithm pays Ω(σ-k) per phase while the offline optimum pays k+1, so
// the ratio grows as Ω(σ/k) — for every monitor, including both §5 upper
// bound algorithms.
func E5LowerBound() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Theorem 5.1 adversary: Ω(σ/k) for every online algorithm",
		Claim: "Theorem 5.1: competitiveness Ω(σ/k) against an ε-OPT adversary",
		Run: func(o Options) []*metrics.Table {
			const k = 2
			e := eps.MustNew(1, 4)
			sigmas := []int{6, 12, 24, 48, 96}
			phases := 4
			if o.Quick {
				sigmas = []int{6, 24}
				phases = 2
			}
			tb := metrics.NewTable("E5: Thm 5.1 instance (k=2, ε=1/4, 4 phases)",
				"sigma", "sigma/k", "monitor", "online msgs", "OPT realistic", "ratio", "msgs/phase")
			monitors := []string{"approx", "half-eps"}
			jobs := len(sigmas) * len(monitors)
			reps := parMap(o, jobs, func(i int) sim.Report {
				sigma := sigmas[i/len(monitors)]
				mon := monitors[i%len(monitors)]
				steps := phases * (sigma - k + 1)
				return runOrPanic(sim.Config{
					K: k, Eps: e, Steps: steps, Seed: o.Seed + 13,
					Gen:        stream.NewLowerBound(sigma, 4, k, e, 1<<24),
					NewMonitor: mkMonitor(mon, k, e),
					Validate:   sim.ValidateEps,
					ComputeOPT: true, OPTEps: e,
				})
			})
			for i, rep := range reps {
				sigma := sigmas[i/len(monitors)]
				mon := monitors[i%len(monitors)]
				ratio := float64(rep.Messages.Total()) / float64(max(rep.OPTRealistic, 1))
				tb.AddRow(sigma, float64(sigma)/k, mon,
					rep.Messages.Total(), rep.OPTRealistic, ratio,
					float64(rep.Messages.Total())/float64(phases))
			}
			return []*metrics.Table{tb}
		},
	}
}

// denseWorkload builds the σ-parameterised dense oscillator: k-1 nodes
// pinned clearly above, `dense` nodes churning through the ε-neighborhood
// of v_k (amplitude chosen to cross the round thresholds ℓ_r/u_r), the rest
// clearly below.
func denseWorkload(k, dense, low int, base int64, e eps.Eps, seed uint64) stream.Generator {
	amp := (base - e.ShrinkFloor(base)) * 9 / 10 // most of the neighborhood half-width
	return stream.NewOscillator(k-1, dense, low, base, amp, base*100, base/100, seed)
}

// E6Dense measures DENSEPROTOCOL (under the Theorem 5.8 controller) across
// σ and across v_k: the σ² and log(εv_k) factors of the upper bound.
func E6Dense() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "DENSEPROTOCOL cost vs σ and vs v_k",
		Claim: "Theorem 5.8: O(σ² log(εv_k) + σ log²(εv_k) + log log Δ + log 1/ε)",
		Run: func(o Options) []*metrics.Table {
			const k = 4
			e := eps.MustNew(1, 4)
			denseCounts := []int{4, 8, 16, 32, 64}
			steps := 1500
			if o.Quick {
				denseCounts = []int{4, 16}
				steps = 300
			}
			t1 := metrics.NewTable("E6a: approx controller vs σ (k=4, ε=1/4, v_k≈4096)",
				"dense nodes", "sigma(max)", "msgs", "epochs", "dense epochs", "sub calls", "msgs/step")
			type e6row struct {
				rep                   sim.Report
				denseEpochs, subCalls int64
			}
			rows := parMap(o, len(denseCounts), func(i int) e6row {
				dc := denseCounts[i]
				var ap *protocol.Approx
				rep := runOrPanic(sim.Config{
					K: k, Eps: e, Steps: steps, Seed: o.Seed + 17,
					Gen: denseWorkload(k, dc, 4, 4096, e, o.Seed+200+uint64(dc)),
					NewMonitor: func(c cluster.Cluster) protocol.Monitor {
						ap = protocol.NewApprox(c, k, e)
						return ap
					},
					Validate: sim.ValidateEps,
				})
				return e6row{rep, ap.DenseEpochs(), ap.SubCalls()}
			})
			for i, dc := range denseCounts {
				r := rows[i]
				t1.AddRow(dc, r.rep.SigmaMax, r.rep.Messages.Total(), r.rep.Epochs,
					r.denseEpochs, r.subCalls,
					float64(r.rep.Messages.Total())/float64(steps))
			}

			bases := []int64{1 << 8, 1 << 12, 1 << 16, 1 << 20}
			if o.Quick {
				bases = bases[:2]
			}
			t2 := metrics.NewTable("E6b: approx controller vs v_k (k=4, ε=1/4, 16 dense nodes)",
				"v_k", "log2(eps*v_k)", "msgs", "epochs", "msgs/epoch")
			baseRows := parMap(o, len(bases), func(i int) sim.Report {
				return runOrPanic(sim.Config{
					K: k, Eps: e, Steps: steps, Seed: o.Seed + 19,
					Gen:        denseWorkload(k, 16, 4, bases[i], e, o.Seed+300),
					NewMonitor: mkMonitor("approx", k, e),
					Validate:   sim.ValidateEps,
				})
			})
			for i, base := range bases {
				rep := baseRows[i]
				t2.AddRow(base, log2i(base/4), rep.Messages.Total(), rep.Epochs,
					perEpoch(rep.Messages.Total(), rep.Epochs))
			}
			return []*metrics.Table{t1, t2}
		},
	}
}

// E7HalfEps compares the Corollary 5.9 monitor with the Theorem 5.8
// controller on identical dense workloads: the ε/2-restricted adversary
// buys a per-epoch cost linear (not quadratic) in σ.
func E7HalfEps() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Corollary 5.9 monitor: O(σ + k log n + …) vs ε/2-OPT",
		Claim: "Corollary 5.9: linear σ-dependence when the offline error is ε/2",
		Run: func(o Options) []*metrics.Table {
			const k = 4
			e := eps.MustNew(1, 4)
			denseCounts := []int{4, 8, 16, 32, 64}
			steps := 1500
			if o.Quick {
				denseCounts = []int{4, 16}
				steps = 300
			}
			tb := metrics.NewTable("E7: approx vs half-eps across σ (k=4, ε=1/4)",
				"dense nodes", "sigma(max)", "approx msgs/epoch", "half-eps msgs/epoch",
				"approx msgs", "half-eps msgs", "OPT(ε/2) breaks", "half-eps ratio")
			type e7row struct{ ap, he sim.Report }
			rows := parMap(o, len(denseCounts), func(i int) e7row {
				dc := denseCounts[i]
				gen1 := denseWorkload(k, dc, 4, 4096, e, o.Seed+400+uint64(dc))
				gen2 := denseWorkload(k, dc, 4, 4096, e, o.Seed+400+uint64(dc))
				apRep := runOrPanic(sim.Config{
					K: k, Eps: e, Steps: steps, Seed: o.Seed + 23,
					Gen:        gen1,
					NewMonitor: mkMonitor("approx", k, e),
					Validate:   sim.ValidateEps,
				})
				heRep := runOrPanic(sim.Config{
					K: k, Eps: e, Steps: steps, Seed: o.Seed + 23,
					Gen:        gen2,
					NewMonitor: mkMonitor("half-eps", k, e),
					Validate:   sim.ValidateEps,
					ComputeOPT: true, OPTEps: e.Half(),
				})
				return e7row{apRep, heRep}
			})
			for i, dc := range denseCounts {
				apRep, heRep := rows[i].ap, rows[i].he
				tb.AddRow(dc, heRep.SigmaMax,
					perEpoch(apRep.Messages.Total(), apRep.Epochs),
					perEpoch(heRep.Messages.Total(), heRep.Epochs),
					apRep.Messages.Total(), heRep.Messages.Total(),
					heRep.OPTBreaks, heRep.RatioLB)
			}
			return []*metrics.Table{tb}
		},
	}
}

// E8EpsilonSavings quantifies the paper's motivation: on noisy oscillation
// around v_k, allowing an error ε collapses the communication that exact
// monitoring burns.
func E8EpsilonSavings() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "ε-approximation communication savings on noisy streams",
		Claim: "Section 1 motivation: marginal/noisy changes need not be communicated",
		Run: func(o Options) []*metrics.Table {
			const k, dense, low = 4, 16, 8
			const base = int64(1 << 16)
			steps := 1500
			if o.Quick {
				steps = 300
			}
			// Noise amplitude fixed at ~3% of v_k; ε sweeps across it.
			amp := base * 3 / 100
			mkGen := func(seed uint64) stream.Generator {
				return stream.NewOscillator(k-1, dense, low, base, amp, base*64, base/64, seed)
			}
			epsList := []eps.Eps{
				eps.MustNew(1, 64), eps.MustNew(1, 16), eps.MustNew(1, 8),
				eps.MustNew(1, 4), eps.MustNew(1, 2),
			}
			// Jobs: 0 = naive baseline, 1 = exact-mid, 2+i = approx(ε_i);
			// the naive total is every row's denominator, so rows are
			// assembled after the barrier.
			reps := parMap(o, 2+len(epsList), func(i int) sim.Report {
				switch i {
				case 0:
					return runOrPanic(sim.Config{
						K: k, Steps: steps, Seed: o.Seed + 29,
						Gen:        mkGen(o.Seed + 500),
						NewMonitor: mkMonitor("naive", k, eps.Zero),
						Validate:   sim.ValidateEps, // ε=0 → exact check via eps-validate with Zero
					})
				case 1:
					return runOrPanic(sim.Config{
						K: k, Steps: steps, Seed: o.Seed + 29,
						Gen:        stream.Distinct{Inner: mkGen(o.Seed + 500)},
						NewMonitor: mkMonitor("exact-mid", k, eps.Zero),
						Validate:   sim.ValidateExact,
					})
				default:
					ee := epsList[i-2]
					return runOrPanic(sim.Config{
						K: k, Eps: ee, Steps: steps, Seed: o.Seed + 29,
						Gen:        mkGen(o.Seed + 500),
						NewMonitor: mkMonitor("approx", k, ee),
						Validate:   sim.ValidateEps,
					})
				}
			})
			naive, exact := reps[0], reps[1]
			tb := metrics.NewTable("E8: messages over 1500 noisy steps (amp ≈ 3% of v_k)",
				"monitor", "eps", "msgs", "msgs/step", "vs naive")
			tb.AddRow("naive", "0", naive.Messages.Total(),
				float64(naive.Messages.Total())/float64(steps), 1.0)
			tb.AddRow("exact-mid", "0", exact.Messages.Total(),
				float64(exact.Messages.Total())/float64(steps),
				ratio(naive.Messages.Total(), exact.Messages.Total()))
			for i, ee := range epsList {
				rep := reps[2+i]
				tb.AddRow("approx", ee.String(), rep.Messages.Total(),
					float64(rep.Messages.Total())/float64(steps),
					ratio(naive.Messages.Total(), rep.Messages.Total()))
			}
			return []*metrics.Table{tb}
		},
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		b = 1
	}
	return float64(a) / float64(b)
}
