package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// MidNaive is the probe-per-violation exact baseline in the spirit of the
// precursor paper [6] without the Section 3 generic framework: it separates
// the top-k from the rest with the midpoint of [v_{k+1}, v_k], and on every
// violation recomputes the k+1 largest values from scratch. Each violation
// therefore costs O(k log n) messages — against ExactMid's amortised
// O(log Δ) bisection inside an epoch — which experiment E3 quantifies.
type MidNaive struct {
	c      cluster.Cluster
	k      int
	out    []int
	epochs int64
	rules  ruleScratch
	probe  []wire.Report // startEpoch's TopM buffer
}

// NewMidNaive returns the baseline monitor.
func NewMidNaive(c cluster.Cluster, k int) *MidNaive {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: MidNaive needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	return &MidNaive{c: c, k: k, out: make([]int, 0, k), rules: newRuleScratch()}
}

// Name implements Monitor.
func (m *MidNaive) Name() string { return "midpoint-probe" }

// Epochs implements Monitor.
func (m *MidNaive) Epochs() int64 { return m.epochs }

// Output implements Monitor.
func (m *MidNaive) Output() []int { return m.out }

// Start implements Monitor.
func (m *MidNaive) Start() { m.startEpoch() }

func (m *MidNaive) startEpoch() {
	m.epochs++
	m.probe = openProbe(m.c, m.k, m.probe)
	reps := m.probe
	m.out = idsInto(m.out, reps[:m.k])
	mid := (reps[m.k].Value + reps[m.k-1].Value) / 2
	m.rules.assignTwoSided(m.c, m.out, filter.AtLeast(mid), filter.AtMost(mid))
}

// HandleStep implements Monitor.
func (m *MidNaive) HandleStep() {
	drainViolations(m.c, func(wire.Report) { m.startEpoch() })
}
