// Package protocol implements the paper's monitoring algorithms — the
// EXISTENCE-based violation handling (Section 3), the exact monitor of
// Corollary 3.3, the TOP-K-PROTOCOL of Section 4, DENSEPROTOCOL and
// SUBPROTOCOL of Section 5.2, the Theorem 5.8 controller, the Corollary 5.9
// half-error monitor, and two baselines — all against the engine-neutral
// cluster interface.
package protocol

import (
	"fmt"
	"sort"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// Monitor is a continuous ε-Top-k monitoring algorithm driven by the
// simulation: Start runs once after the first observations; HandleStep runs
// after each subsequent observation and must leave the nodes with a valid
// filter set and the server with a correct output.
type Monitor interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Start initialises the first epoch.
	Start()
	// HandleStep processes the current time step to quiescence.
	HandleStep()
	// Output returns the current output F(t) as node ids.
	Output() []int
	// Epochs returns how many epochs (phases between guaranteed OPT
	// messages) have started; used by competitive-ratio experiments.
	Epochs() int64
}

// maxViolationsPerStep bounds the violation-processing loop; exceeding it
// means a protocol failed to quiesce, which is a bug, not a data condition.
func maxViolationsPerStep(n int) int { return 1000 + 200*n }

// drainViolations repeatedly detects and dispatches violations until the
// cluster is quiescent.
func drainViolations(c cluster.Cluster, handle func(wire.Report)) {
	limit := maxViolationsPerStep(c.N())
	for i := 0; ; i++ {
		if i > limit {
			panic(fmt.Sprintf("protocol: violation processing did not quiesce after %d violations", i))
		}
		rep, ok := c.DetectViolation()
		if !ok {
			return
		}
		handle(rep)
	}
}

// idsInto appends the node ids of reports to dst[:0], sorted ascending.
func idsInto(dst []int, reps []wire.Report) []int {
	dst = dst[:0]
	for _, r := range reps {
		dst = append(dst, r.ID)
	}
	sort.Ints(dst)
	return dst
}

// resetAllTags returns a rule retagging every tag to the given one; With
// calls then define the fresh filters. Monitors build theirs once, at
// construction, and reuse it for every epoch opening.
func resetAllTags(to wire.Tag) wire.FilterRule {
	var r wire.FilterRule
	for t := wire.Tag(0); t < wire.NumTags; t++ {
		r.WithRetag(t, to)
	}
	return r
}

// ruleScratch holds the reusable broadcast rules of a two-sided protocol.
// Engines apply a rule fully before BroadcastRule returns (see
// cluster.Cluster), so reusing the same rule object across broadcasts keeps
// filter updates allocation-free from the first epoch on.
type ruleScratch struct {
	assign   wire.FilterRule // retag-everything epoch opener
	retarget wire.FilterRule // in-epoch two-filter update
}

func newRuleScratch() ruleScratch {
	return ruleScratch{assign: resetAllTags(wire.TagRest)}
}

// assignTwoSided resets the whole cluster to TagRest with the rest filter
// (one broadcast), then unicasts TagOut with the out filter to each output
// node — the standard two-filter epoch opening of Prop. 2.4-style protocols.
func (rs *ruleScratch) assignTwoSided(c cluster.Cluster, out []int, fOut, fRest filter.Interval) {
	c.BroadcastRule(rs.assign.With(wire.TagRest, fRest))
	for _, id := range out {
		c.SetTagFilter(id, wire.TagOut, fOut)
	}
}

// retargetTwoSided updates both filters of an ongoing two-sided epoch with a
// single broadcast.
func (rs *ruleScratch) retargetTwoSided(c cluster.Cluster, fOut, fRest filter.Interval) {
	c.BroadcastRule(rs.retarget.With(wire.TagOut, fOut).With(wire.TagRest, fRest))
}

// pow2Sat returns 2^x saturated to stay well below filter.Inf.
func pow2Sat(x int) int64 {
	if x >= 60 {
		return 1 << 60
	}
	return int64(1) << uint(x)
}

// satAdd adds two non-negative int64s, saturating below filter.Inf.
func satAdd(a, b int64) int64 {
	s := a + b
	if s < 0 || s >= filter.Inf {
		return filter.Inf - 1
	}
	return s
}
