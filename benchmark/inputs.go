//go:build linux

package main

import (
	"topkmon/internal/rngx"
	"topkmon/topk"
)

// Child-stream ids under the run seed, one per independent input, so adding
// an input never shifts another's values.
const (
	streamValues    = 1 // node value traces (one grandchild stream per serve tenant)
	streamMonitor   = 2 // monitor / tenant seeds
	streamItems     = 3 // item event trace
	streamColdStart = 4 // monitor seeds of the recovery_s rebuilds
)

// walkSpec shapes a value trace over n nodes: `contenders` nodes ride
// phase-shifted triangle waves between waveLo and waveHi (they are the ones
// that trade places in the top-k; with period 0 they are static leaders,
// uniform in that range and never pushed again), every other node starts
// uniform in [restLo, restHi], and each step `noise` random non-contender
// nodes take a ±amp random-walk move. These are the two input properties
// the protocol's cost depends on: how many nodes move per step and how
// close they sit to the k-th value.
type walkSpec struct {
	n          int
	contenders int
	period     int // wave period in steps
	waveLo     int64
	waveHi     int64
	restLo     int64
	restHi     int64
	noise      int
	amp        int64
	steps      int
}

// perStep is the number of updates in every batch of the trace.
func (w walkSpec) perStep() int {
	if w.period == 0 {
		return w.noise
	}
	return w.contenders + w.noise
}

// walkTrace is a pre-generated trace: the initial full-vector load and one
// batch per step, all in one backing array so the timed loop touches no
// allocator.
type walkTrace struct {
	initial []topk.Update
	batches [][]topk.Update
	final   []int64 // every node's value after the last batch
}

// wave returns the triangle-wave value at phase p of a period-long cycle.
func (w walkSpec) wave(p int) int64 {
	half := w.period / 2
	if p > half {
		p = w.period - p
	}
	return w.waveLo + (w.waveHi-w.waveLo)*int64(p)/int64(half)
}

// genWalk builds the trace for one client; it is a pure function of
// (spec, seed).
func genWalk(w walkSpec, seed uint64) walkTrace {
	rng := rngx.New(seed)
	vals := make([]int64, w.n)
	phase := make([]int, w.contenders)
	for i := range vals {
		switch {
		case i >= w.contenders:
			vals[i] = w.restLo + rng.Int63n(w.restHi-w.restLo+1)
		case w.period == 0:
			vals[i] = w.waveLo + rng.Int63n(w.waveHi-w.waveLo+1)
		default:
			phase[i] = i * w.period / w.contenders
			vals[i] = w.wave(phase[i])
		}
	}
	tr := walkTrace{
		initial: make([]topk.Update, w.n),
		batches: make([][]topk.Update, w.steps),
	}
	for i, v := range vals {
		tr.initial[i] = topk.Update{Node: i, Value: v}
	}
	per := w.perStep()
	backing := make([]topk.Update, 0, w.steps*per)
	for s := range tr.batches {
		start := len(backing)
		for i := 0; i < w.contenders && w.period > 0; i++ {
			phase[i] = (phase[i] + 1) % w.period
			vals[i] = w.wave(phase[i])
			backing = append(backing, topk.Update{Node: i, Value: vals[i]})
		}
		for j := 0; j < w.noise; j++ {
			i := w.contenders + rng.Intn(w.n-w.contenders)
			v := vals[i] + rng.Int63n(2*w.amp+1) - w.amp
			if v < 0 {
				v = 0
			}
			vals[i] = v
			backing = append(backing, topk.Update{Node: i, Value: v})
		}
		tr.batches[s] = backing[start:len(backing):len(backing)]
	}
	tr.final = vals
	return tr
}

// scaled returns max(1, round(n*scale)): op counts shrink with -scale (the
// smoke test runs every workload at a sliver of its size).
func scaled(n int, scale float64) int {
	s := int(float64(n)*scale + 0.5)
	if s < 1 {
		return 1
	}
	return s
}
