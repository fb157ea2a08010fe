package exp

import (
	"fmt"

	"topkmon/internal/metrics"
	"topkmon/internal/wire"
)

// HotCold fills vals with sigma "hot" nodes isolated in the [2^30, 2^31)
// value bucket (spread across the id space) and everyone else cold in the
// low buckets 3..10 — the workload whose plausible-matcher count the value
// index is supposed to track. sigma is capped at len(vals). Shared by the
// E12 selectivity experiment and the root BenchmarkSweepSelectivity so the
// two always measure the same distribution.
func HotCold(vals []int64, sigma int) {
	n := len(vals)
	if sigma > n {
		sigma = n
	}
	stride := n / sigma
	for j := range vals {
		if j%stride == 0 && j/stride < sigma {
			vals[j] = int64(1)<<30 + int64(j)
		} else {
			vals[j] = 4 << (j % 8)
		}
	}
}

// HotInterval returns the predicate isolating HotCold's hot bucket.
func HotInterval() wire.Pred { return wire.InRange(1<<30, 1<<31-1) }

// E12Selectivity measures the value index added with the sharded node
// state: the number of node structs a predicate-routed Collect actually
// visits as a function of the plausible-matcher count σ and of n. With the
// power-of-two bucket index, visits track σ (here the isolated hot nodes)
// and stay flat as the cold population grows; the state-decided fallback
// (a tag collect) keeps visiting all n nodes. Visits are deterministic —
// no randomness is involved — so the table doubles as a regression pin for
// the routing itself. The value-ordered organisation follows the
// companion top-k-position work (arXiv:1410.7912) and the top-k/k-select
// structures of arXiv:1709.07259.
func E12Selectivity() Experiment {
	return Experiment{
		ID:      "E12",
		Title:   "Value-index selectivity: visited nodes track σ, not n",
		Claim:   "ROADMAP sharded state: Sweep/Collect cost O(σ + log Δ) candidates, not n (cf. arXiv:1410.7912, arXiv:1709.07259)",
		Verdict: verdictE12,
		Run: func(o Options) []*metrics.Table {
			ns := []int{256, 4096, 16384}
			if o.Quick {
				ns = []int{256, 1024}
			}
			sigmas := []int{1, 16, 256}
			headers := []string{"n"}
			for _, s := range sigmas {
				headers = append(headers, fmt.Sprintf("visits σ=%d", s))
			}
			headers = append(headers, "fallback (tag)", "max visits/σ")
			tb := metrics.NewTable("E12: Collect node visits vs σ (hot nodes) and n", headers...)

			type cell struct{ visits []int64 }
			cells := parMapWith(o, len(ns),
				func() *trialCtx { return &trialCtx{} },
				func(c *trialCtx, i int) cell {
					n := ns[i]
					e := c.reset(n, o.Seed+uint64(n))
					if cap(c.vals) < n {
						c.vals = make([]int64, n)
					}
					c.vals = c.vals[:n]
					visits := make([]int64, 0, len(sigmas)+1)
					for _, sigma := range sigmas {
						if sigma > n {
							sigma = n
						}
						HotCold(c.vals, sigma)
						e.Advance(c.vals)
						before := e.VisitedNodes()
						reps := e.Collect(HotInterval())
						if len(reps) != sigma {
							panic(fmt.Sprintf("exp: E12 collect matched %d nodes, want %d", len(reps), sigma))
						}
						visits = append(visits, e.VisitedNodes()-before)
					}
					// Fallback: a tag predicate has no value bounds, so the
					// engine must visit all n nodes.
					before := e.VisitedNodes()
					e.Collect(wire.HasTag(wire.TagNone))
					visits = append(visits, e.VisitedNodes()-before)
					return cell{visits: visits}
				})

			for i, n := range ns {
				row := []any{n}
				worst := 0.0
				for j, s := range sigmas {
					v := cells[i].visits[j]
					row = append(row, v)
					if s > n {
						s = n
					}
					if r := float64(v) / float64(s); r > worst {
						worst = r
					}
				}
				row = append(row, cells[i].visits[len(sigmas)], fmt.Sprintf("%.2f", worst))
				tb.AddRow(row...)
			}
			return []*metrics.Table{tb}
		},
	}
}
