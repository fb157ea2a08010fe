package exp

import (
	"fmt"

	"topkmon/internal/metrics"
	istream "topkmon/internal/stream/items"
	"topkmon/topk"
	"topkmon/topk/items"
)

// E13HeavyHitters measures the sketch-backed ITEM monitoring layer end to
// end: per-node Space-Saving summaries, each counter read as its lower
// bound (counter − minimum), feed the ε-Top-k monitor with aggregated item
// counts, and the table reports recall@k against exact ground truth as a
// function of the per-node counters, together with the protocol's message
// bill. The expected shape: recall climbs to ~1 once the per-node counter
// budget clears the trace's heavy-item count, while messages/step stay
// governed by the filter protocol, not by the event volume —
// constant-space summaries preserve top-k recall at a fraction of the
// state (verdictE13).
func E13HeavyHitters() Experiment {
	return Experiment{
		ID:      "E13",
		Title:   "Sketch-backed item monitoring: recall@k vs summary size",
		Claim:   "ROADMAP sketch-backed heavy-hitter scenarios: constant-space summaries (Space-Saving lower bounds) preserve ε-Top-k item recall",
		Verdict: verdictE13,
		Run: func(o Options) []*metrics.Table {
			const (
				nodes  = 8
				m      = 256
				k      = 8
				s      = 1.1
				traces = 16
			)
			perStep, steps := 1000, 40
			capacities := []int{16, 48, 128}
			if o.Quick {
				perStep, steps = 400, 15
				capacities = []int{16, 64}
			}
			// Row r is capacity r. Every row runs the same traces, trace t
			// under inner seed o.Seed+t, so rows differ only by their
			// summary size. A run is recall@k, msgs/step and the k-th
			// output's estimate and bound.
			rows := len(capacities)
			runs := parMap(o, rows*traces, func(i int) [4]float64 {
				r, t := i/traces, uint64(i%traces)
				mon, err := items.New(items.Config{
					Nodes: nodes, Items: m, K: k,
					Epsilon:  topk.MustEpsilon(1, 8),
					Capacity: capacities[r],
					Seed:     o.Seed + t,
				})
				if err != nil {
					panic(fmt.Sprintf("exp: E13 config: %v", err))
				}
				defer mon.Close()
				gen := istream.NewZipf(nodes, m, perStep, s, o.Seed+t*1013)
				truth := istream.NewTruth(m)
				var evs []istream.Event
				for step := 0; step < steps; step++ {
					evs = gen.Next(step, evs[:0])
					for _, e := range evs {
						if err := mon.Observe(e.Node, e.Item, e.Count); err != nil {
							panic(fmt.Sprintf("exp: E13 observe: %v", err))
						}
					}
					truth.ObserveEvents(evs)
					if err := mon.Step(); err != nil {
						panic(fmt.Sprintf("exp: E13 step: %v", err))
					}
				}
				if err := mon.Check(); err != nil {
					panic(fmt.Sprintf("exp: E13 check: %v", err))
				}
				out := mon.TopItems(nil)
				var kthEst, kthBound int64
				if len(out) > 0 {
					kthEst, kthBound = mon.Estimate(out[len(out)-1])
				}
				cost := mon.Cost()
				return [4]float64{truth.RecallAt(k, out), float64(cost.Messages) / float64(cost.Steps),
					float64(kthEst), float64(kthBound)}
			})

			tb := metrics.NewTable(
				fmt.Sprintf("E13: mean over %d traces of recall@%d and message cost vs per-node summary size (zipf s=%.1f, m=%d, n=%d)", traces, k, s, m, nodes),
				"capacity", fmt.Sprintf("recall@%d", k), "msgs/step", "kth est", "kth bound")
			for r := range rows {
				var mean [4]float64
				for _, run := range runs[r*traces : (r+1)*traces] {
					for j, v := range run {
						mean[j] += v / traces
					}
				}
				tb.AddRow(capacities[r],
					fmt.Sprintf("%.3f", mean[0]), fmt.Sprintf("%.1f", mean[1]),
					fmt.Sprintf("%.0f", mean[2]), fmt.Sprintf("%.0f", mean[3]))
			}
			return []*metrics.Table{tb}
		},
	}
}
