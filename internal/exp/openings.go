package exp

import (
	"fmt"
	"math"
	"slices"

	"topkmon/internal/cluster"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// E14Openings measures what opening an epoch costs: the probe
// protocol.TopM(k+1), whose max-finds after the first are seeded from the
// reports the server already holds, against the k+1 independent FindMax
// runs it replaced. Both return the same reports, which every trial
// checks. arXiv:1709.07259 selects the top k in the same broadcast model
// at a cost additive in k; the loop pays Lemma 2.6's log n per node.
func E14Openings() Experiment {
	return Experiment{
		ID:      "E14",
		Title:   "Epoch opening: seeded max-finds vs repeated FindMax",
		Claim:   "Lemma 2.6, arXiv:1709.07259: TopM(k+1) seeded is additive in k; k+1 FindMax runs cost (k+1)·O(log n)",
		Verdict: verdictE14,
		Run: func(o Options) []*metrics.Table {
			ns := []int{1 << 4, 1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}
			trials := 40
			if o.Quick {
				ns = []int{1 << 4, 1 << 8, 1 << 12}
				trials = 10
			}
			ks := []int{1, 8, 64}
			type cell struct{ n, k int }
			var cells []cell
			for _, n := range ns {
				for _, k := range ks {
					if k < n {
						cells = append(cells, cell{n, k})
					}
				}
			}
			// One unit per (cell, trial), so that the big cells spread
			// over the workers.
			costs := parMapWith(o, len(cells)*trials,
				func() *openingCtx { return &openingCtx{} },
				func(c *openingCtx, i int) openingCost {
					cl := cells[i/trials]
					return c.open(cl.n, cl.k, o.Seed+uint64(i)*131)
				})
			ta := metrics.NewTable("E14a: messages and rounds per opening, TopM(k+1) seeded vs k+1 FindMax runs",
				"n", "log2(n)", "k", "seeded msgs", "loop msgs", "loop/seeded", "seeded rounds", "loop rounds")
			seeded := map[cell]float64{}
			loop := map[cell]float64{}
			for ci, cl := range cells {
				var sum openingCost
				for _, c := range costs[ci*trials : (ci+1)*trials] {
					sum.seededMsgs += c.seededMsgs
					sum.loopMsgs += c.loopMsgs
					sum.seededRounds += c.seededRounds
					sum.loopRounds += c.loopRounds
				}
				t := float64(trials)
				s, l := float64(sum.seededMsgs)/t, float64(sum.loopMsgs)/t
				seeded[cl], loop[cl] = s, l
				ta.AddRow(cl.n, math.Log2(float64(cl.n)), cl.k, s, l, l/s,
					float64(sum.seededRounds)/t, float64(sum.loopRounds)/t)
			}
			tb := metrics.NewTable("E14b: least-squares slope of messages per opening in k, at each n",
				"n", "seeded msgs/k", "loop msgs/k")
			for _, n := range ns {
				var x, ys, yl []float64
				for _, k := range ks {
					if k < n {
						x, ys, yl = append(x, float64(k)), append(ys, seeded[cell{n, k}]), append(yl, loop[cell{n, k}])
					}
				}
				tb.AddRow(n, slope(x, ys), slope(x, yl))
			}
			tc := metrics.NewTable("E14c: least-squares slope of messages per opening in log2(n), at each k",
				"k", "seeded msgs/log2(n)", "loop msgs/log2(n)", "loop per FindMax")
			for _, k := range ks {
				var x, ys, yl []float64
				for _, n := range ns {
					if k < n {
						x, ys, yl = append(x, math.Log2(float64(n))), append(ys, seeded[cell{n, k}]), append(yl, loop[cell{n, k}])
					}
				}
				sl := slope(x, yl)
				tc.AddRow(k, slope(x, ys), sl, sl/float64(k+1))
			}
			return []*metrics.Table{ta, tb, tc}
		},
	}
}

// openingCost is one trial of E14: the messages and rounds of one
// opening, seeded and as the loop.
type openingCost struct {
	seededMsgs, loopMsgs, seededRounds, loopRounds int64
}

// openingCtx is an E14 worker's reusable state: the engine cache, the
// value vector and the two probes' buffers.
type openingCtx struct {
	engCtx
	vals        []int64
	probe, want []wire.Report
}

// open runs one trial: n random values, then TopM(k+1) and the loop, each
// on the engine reset to the same seed, and panics unless they return the
// same reports.
func (c *openingCtx) open(n, k int, seed uint64) openingCost {
	if len(c.vals) != n {
		c.vals = make([]int64, n)
	}
	r := rngx.New(seed)
	for i := range c.vals {
		c.vals[i] = r.Int63n(1 << 30)
	}
	var cost openingCost
	e := c.reset(n, seed)
	e.Advance(c.vals)
	c.probe = protocol.TopM(e, k+1, c.probe)
	cost.seededMsgs, cost.seededRounds = closeStep(e)
	e = c.reset(n, seed)
	e.Advance(c.vals)
	c.want = findMaxLoop(e, k+1, c.want[:0])
	cost.loopMsgs, cost.loopRounds = closeStep(e)
	if !slices.Equal(c.probe, c.want) {
		panic(fmt.Sprintf("exp: E14 n=%d k=%d: TopM returns %v, the FindMax loop %v", n, k, c.probe, c.want))
	}
	return cost
}

// closeStep ends the step on a fresh engine and returns its messages and
// rounds.
func closeStep(e cluster.Engine) (msgs, rounds int64) {
	e.EndStep()
	c := e.Counters()
	return c.Total(), c.MaxRoundsPerStep()
}

// findMaxLoop is the probe TopM replaced: m FindMax runs, each excluding
// the node it found, appended to dst.
func findMaxLoop(c cluster.Cluster, m int, dst []wire.Report) []wire.Report {
	for j := 0; j < min(m, c.N()); j++ {
		rep, ok := protocol.FindMax(c, j == 0)
		if !ok {
			break
		}
		dst = append(dst, rep)
		c.MaxFindExclude(rep.ID)
	}
	return dst
}
