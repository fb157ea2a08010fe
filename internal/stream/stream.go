// Package stream provides the workload generators driving the reproduction:
// smooth random walks, hostile uniform jumps, the dense oscillators of the
// paper's motivating noise scenario, bursty web-server load traces for the
// load-balancer example, record/replay, and the adaptive adversary realising
// the Theorem 5.1 lower bound.
package stream

import (
	"fmt"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/rngx"
)

// Generator produces one value vector per time step.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// N returns the number of node streams.
	N() int
	// Next returns the values observed at step t (called with t = 0, 1, …
	// strictly in order). The returned slice is owned by the caller.
	Next(t int) []int64
}

// Adaptive generators additionally observe the monitor's state before each
// step — the adversary model of the paper ("the adversary … can see the
// filters communicated by the server").
type Adaptive interface {
	Generator
	// ObserveFilters is called before Next with the filters currently
	// assigned to the nodes and the monitor's current output.
	ObserveFilters(filters []filter.Interval, output []int)
}

// clampVals bounds a value into [0, max].
func clampVal(v, max int64) int64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// --- Random walk ---

// Walk is a bounded random walk per node: each step moves by a uniform
// offset in [-Step, +Step]. It models smoothly drifting loads where filters
// pay off.
type Walk struct {
	Nodes int
	Start int64 // initial level (spread per node)
	Step  int64 // maximum per-step move
	Max   int64 // value cap (Δ)

	rng *rngx.Source
	cur []int64
}

// NewWalk returns a seeded random-walk generator. Initial values are spread
// uniformly in [Start/2, Start+Start/2] so the top-k is non-degenerate.
// No program calls it; the tests of internal/sim, internal/live,
// internal/faults and topk, and the root benchmarks do.
func NewWalk(nodes int, start, step, max int64, seed uint64) *Walk {
	w := &Walk{Nodes: nodes, Start: start, Step: step, Max: max, rng: rngx.New(seed)}
	w.cur = make([]int64, nodes)
	for i := range w.cur {
		span := start
		if span < 1 {
			span = 1
		}
		w.cur[i] = clampVal(start/2+w.rng.Int63n(span), max)
	}
	return w
}

// Name implements Generator.
func (w *Walk) Name() string { return fmt.Sprintf("walk(step=%d,max=%d)", w.Step, w.Max) }

// N implements Generator.
func (w *Walk) N() int { return w.Nodes }

// Next implements Generator.
func (w *Walk) Next(t int) []int64 {
	out := make([]int64, w.Nodes)
	if t == 0 {
		copy(out, w.cur)
		return out
	}
	for i := range w.cur {
		delta := w.rng.Int63n(2*w.Step+1) - w.Step
		w.cur[i] = clampVal(w.cur[i]+delta, w.Max)
		out[i] = w.cur[i]
	}
	return out
}

// --- Uniform jumps ---

// Jumps draws every node's value fresh and uniformly each step — the
// hostile regime where filters barely help and every monitor pays.
type Jumps struct {
	Nodes int
	Lo    int64
	Hi    int64
	rng   *rngx.Source
}

// NewJumps returns a seeded uniform-jump generator.
func NewJumps(nodes int, lo, hi int64, seed uint64) *Jumps {
	return &Jumps{Nodes: nodes, Lo: lo, Hi: hi, rng: rngx.New(seed)}
}

// Name implements Generator.
func (g *Jumps) Name() string { return fmt.Sprintf("jumps[%d,%d]", g.Lo, g.Hi) }

// N implements Generator.
func (g *Jumps) N() int { return g.Nodes }

// Next implements Generator.
func (g *Jumps) Next(int) []int64 {
	out := make([]int64, g.Nodes)
	for i := range out {
		out[i] = g.Lo + g.rng.Int63n(g.Hi-g.Lo+1)
	}
	return out
}

// --- Dense oscillator ---

// Oscillator is the paper's motivating noise scenario: Top nodes sit
// clearly above, Low nodes clearly below, and Dense nodes oscillate inside
// a ±Amplitude band around Base — i.e. around the k-th largest value — so
// that σ ≈ Dense+… and the exact problem churns while the ε-problem is
// quiet whenever Amplitude stays inside the ε-neighborhood.
type Oscillator struct {
	Top       int   // nodes pinned clearly above (use k-1 of them in-output)
	Dense     int   // nodes oscillating around Base
	Low       int   // nodes clearly below
	Base      int64 // the oscillation centre (≈ v_k)
	Amplitude int64 // oscillation half-width
	TopLevel  int64 // level of the Top nodes
	LowLevel  int64 // level of the Low nodes

	rng *rngx.Source
}

// NewOscillator returns a seeded dense-oscillator generator.
func NewOscillator(top, dense, low int, base, amplitude, topLevel, lowLevel int64, seed uint64) *Oscillator {
	return &Oscillator{
		Top: top, Dense: dense, Low: low,
		Base: base, Amplitude: amplitude, TopLevel: topLevel, LowLevel: lowLevel,
		rng: rngx.New(seed),
	}
}

// Name implements Generator.
func (g *Oscillator) Name() string {
	return fmt.Sprintf("oscillator(dense=%d,amp=%d,base=%d)", g.Dense, g.Amplitude, g.Base)
}

// N implements Generator.
func (g *Oscillator) N() int { return g.Top + g.Dense + g.Low }

// Next implements Generator.
func (g *Oscillator) Next(int) []int64 {
	out := make([]int64, 0, g.N())
	for i := 0; i < g.Top; i++ {
		out = append(out, g.TopLevel+g.rng.Int63n(g.Amplitude+1))
	}
	for i := 0; i < g.Dense; i++ {
		out = append(out, g.Base-g.Amplitude+g.rng.Int63n(2*g.Amplitude+1))
	}
	for i := 0; i < g.Low; i++ {
		out = append(out, g.LowLevel+g.rng.Int63n(g.Amplitude+1))
	}
	return out
}

// --- Bursty load trace ---

// Loads models web-server loads for the load-balancer scenario of the
// paper's introduction: a per-node baseline, small multiplicative jitter,
// and occasional bursts that decay geometrically.
type Loads struct {
	Nodes     int
	Baseline  int64
	Jitter    int64   // uniform per-step jitter half-width
	BurstProb float64 // per-node per-step probability of a new burst
	BurstSize int64
	Max       int64

	rng   *rngx.Source
	burst []int64
	base  []int64
}

// NewLoads returns a seeded load-trace generator. No program calls it; the
// tests of internal/sim and the root benchmarks do.
func NewLoads(nodes int, baseline, jitter int64, burstProb float64, burstSize, max int64, seed uint64) *Loads {
	g := &Loads{
		Nodes: nodes, Baseline: baseline, Jitter: jitter,
		BurstProb: burstProb, BurstSize: burstSize, Max: max,
		rng: rngx.New(seed),
	}
	g.burst = make([]int64, nodes)
	g.base = make([]int64, nodes)
	for i := range g.base {
		g.base[i] = baseline/2 + g.rng.Int63n(baseline+1)
	}
	return g
}

// Name implements Generator.
func (g *Loads) Name() string { return fmt.Sprintf("loads(burst=%g)", g.BurstProb) }

// N implements Generator.
func (g *Loads) N() int { return g.Nodes }

// Next implements Generator.
func (g *Loads) Next(int) []int64 {
	out := make([]int64, g.Nodes)
	for i := range out {
		if g.rng.Bool(g.BurstProb) {
			g.burst[i] += g.BurstSize/2 + g.rng.Int63n(g.BurstSize+1)
		}
		g.burst[i] -= g.burst[i] / 4 // geometric decay
		j := g.rng.Int63n(2*g.Jitter+1) - g.Jitter
		out[i] = clampVal(g.base[i]+g.burst[i]+j, g.Max)
	}
	return out
}

// --- Replay ---

// Replay feeds back a recorded matrix.
type Replay struct {
	Label  string
	Matrix [][]int64
}

// NewReplay wraps a recorded matrix; steps beyond the recording repeat the
// last row. No program calls it; the tests of internal/sim do.
func NewReplay(label string, matrix [][]int64) *Replay {
	if len(matrix) == 0 {
		panic("stream: empty replay matrix")
	}
	return &Replay{Label: label, Matrix: matrix}
}

// Name implements Generator.
func (g *Replay) Name() string { return "replay(" + g.Label + ")" }

// N implements Generator.
func (g *Replay) N() int { return len(g.Matrix[0]) }

// Next implements Generator.
func (g *Replay) Next(t int) []int64 {
	if t >= len(g.Matrix) {
		t = len(g.Matrix) - 1
	}
	return append([]int64(nil), g.Matrix[t]...)
}

// --- Distinctness wrapper ---

// Distinct makes any generator's values pairwise distinct by the order- and
// shape-preserving map v ↦ v·n + (n-1-i); required by exact-problem
// experiments (the paper assumes distinct values via identifier
// tie-breaking).
type Distinct struct {
	Inner Generator
}

// Name implements Generator.
func (g Distinct) Name() string { return "distinct:" + g.Inner.Name() }

// N implements Generator.
func (g Distinct) N() int { return g.Inner.N() }

// Next implements Generator.
func (g Distinct) Next(t int) []int64 {
	vals := g.Inner.Next(t)
	n := int64(len(vals))
	for i := range vals {
		vals[i] = vals[i]*n + (n - 1 - int64(i))
		if vals[i] > eps.MaxValue {
			vals[i] = eps.MaxValue - int64(i)
		}
	}
	return vals
}

// ObserveFilters forwards adaptivity to the inner generator.
func (g Distinct) ObserveFilters(filters []filter.Interval, output []int) {
	if a, ok := g.Inner.(Adaptive); ok {
		a.ObserveFilters(filters, output)
	}
}
