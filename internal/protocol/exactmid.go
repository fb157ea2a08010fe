package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// ExactMid is the O(k log n + log Δ)-competitive exact Top-k monitor of
// Corollary 3.3: per epoch it computes the k+1 largest values, keeps the
// top-k as its output, and maintains the separator interval
// L = [v_{k+1}, v_k] under the generic framework of Section 3, bisecting L
// at each filter violation. When L empties the epoch ends — by the paper's
// argument the offline optimum communicated at least once within it — and a
// fresh epoch starts.
type ExactMid struct {
	c      cluster.Cluster
	k      int
	out    []int
	l      filter.Interval
	epochs int64
	rules  ruleScratch
	probe  []wire.Report // startEpoch's TopM buffer
}

// NewExactMid returns the monitor for the exact problem (ε plays no role).
func NewExactMid(c cluster.Cluster, k int) *ExactMid {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: ExactMid needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	return &ExactMid{c: c, k: k, out: make([]int, 0, k), rules: newRuleScratch()}
}

// Name implements Monitor.
func (m *ExactMid) Name() string { return "exact-mid" }

// Epochs implements Monitor.
func (m *ExactMid) Epochs() int64 { return m.epochs }

// Output implements Monitor.
func (m *ExactMid) Output() []int { return m.out }

// Start implements Monitor.
func (m *ExactMid) Start() { m.startEpoch() }

func (m *ExactMid) startEpoch() {
	m.epochs++
	m.probe = openProbe(m.c, m.k, m.probe)
	reps := m.probe
	m.out = idsInto(m.out, reps[:m.k])
	m.l = filter.Make(reps[m.k].Value, reps[m.k-1].Value)
	mid := m.l.Mid()
	m.rules.assignTwoSided(m.c, m.out, filter.AtLeast(mid), filter.AtMost(mid))
}

// HandleStep implements Monitor.
func (m *ExactMid) HandleStep() {
	drainViolations(m.c, m.handle)
}

func (m *ExactMid) handle(rep wire.Report) {
	// Generic framework: an up-violation (a rest node crossed the
	// separator) proves the optimal separator lies at or above the value;
	// a down-violation (an output node fell through) that it lies at or
	// below it.
	if rep.Dir == filter.DirUp {
		m.l = m.l.ClampAbove(rep.Value)
	} else {
		m.l = m.l.ClampBelow(rep.Value)
	}
	if m.l.Empty() {
		m.startEpoch()
		return
	}
	mid := m.l.Mid()
	m.rules.retargetTwoSided(m.c, filter.AtLeast(mid), filter.AtMost(mid))
}
