// Package offline computes the optimal filter-based offline algorithm's
// cost on a recorded instance — the adversary's OPT of the competitive
// analyses.
//
// By Proposition 2.4, OPT w.l.o.g. uses two filters per communication-free
// interval, characterised by Lemma 2.5: an interval [t, t'] is servable
// without communication iff some k-set S satisfies
//
//	MIN_S(t, t') ≥ (1-ε) · MAX_{S̄}(t, t'),
//
// where MIN/MAX are per-node envelopes over the interval. Feasibility is
// monotone under shrinking intervals, so the greedy maximal segmentation
// minimises the number of filter re-assignments; the number of segment
// breaks lower-bounds OPT's messages, exactly as the paper's analyses use
// it. The tests cross-check greedy against a dynamic program on small
// instances.
package offline

import (
	"fmt"
	"slices"
	"sort"

	"topkmon/internal/eps"
	"topkmon/internal/oracle"
)

// Instance is a recorded run: Values[t][i] is node i's value at step t.
type Instance struct {
	Values [][]int64
	K      int
	Eps    eps.Eps
}

// NewInstance validates and wraps a recorded matrix.
func NewInstance(values [][]int64, k int, e eps.Eps) (*Instance, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("offline: empty instance")
	}
	n := len(values[0])
	if k < 1 || k > n {
		return nil, fmt.Errorf("offline: k=%d out of range for n=%d", k, n)
	}
	for t, row := range values {
		if len(row) != n {
			return nil, fmt.Errorf("offline: step %d has %d values, want %d", t, len(row), n)
		}
	}
	return &Instance{Values: values, K: k, Eps: e}, nil
}

// T returns the number of steps.
func (in *Instance) T() int { return len(in.Values) }

// envelope tracks per-node running MIN and MAX over the current segment.
type envelope struct {
	min, max []int64
}

func newEnvelope(row []int64) *envelope {
	e := &envelope{min: append([]int64(nil), row...), max: append([]int64(nil), row...)}
	return e
}

// reset restarts the envelope at row, reusing its buffers.
func (e *envelope) reset(row []int64) {
	e.min = append(e.min[:0], row...)
	e.max = append(e.max[:0], row...)
}

// copyFrom makes e an independent copy of o, reusing e's buffers.
func (e *envelope) copyFrom(o *envelope) {
	e.min = append(e.min[:0], o.min...)
	e.max = append(e.max[:0], o.max...)
}

func (e *envelope) extend(row []int64) {
	for i, v := range row {
		if v < e.min[i] {
			e.min[i] = v
		}
		if v > e.max[i] {
			e.max[i] = v
		}
	}
}

// solver holds the reusable working memory of the feasibility check; one
// solver reused across all steps of a Solve keeps the O(T) feasibility
// checks allocation-free in steady state.
type solver struct {
	byMax    []int
	pmin     []int64
	minsDesc []int64
	eligible []int
}

// prepare fills the solver's order and threshold buffers for the envelopes.
func (s *solver) prepare(minEnv, maxEnv []int64) {
	n := len(minEnv)
	if cap(s.byMax) < n {
		s.byMax = make([]int, n)
		s.pmin = make([]int64, n+1)
		s.minsDesc = make([]int64, n)
	}
	s.byMax, s.pmin, s.minsDesc = s.byMax[:n], s.pmin[:n+1], s.minsDesc[:n]

	// byMax: ids ordered by MAX descending (canonical id tie-break);
	// pmin[j] = min MIN among the first j of them.
	for i := range s.byMax {
		s.byMax[i] = i
	}
	oracle.SortIDs(s.byMax, maxEnv)
	s.pmin[0] = int64(1) << 62
	for j, id := range s.byMax {
		s.pmin[j+1] = s.pmin[j]
		if minEnv[id] < s.pmin[j+1] {
			s.pmin[j+1] = minEnv[id]
		}
	}

	// minsDesc: candidate thresholds, descending, so the first hit
	// maximises slack.
	copy(s.minsDesc, minEnv)
	slices.SortFunc(s.minsDesc, func(a, b int64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		default:
			return 0
		}
	})
}

// findTheta locates the largest feasible threshold, returning its forced
// prefix length. prepare must have run for the same envelopes.
func (s *solver) findTheta(minEnv, maxEnv []int64, k int, e eps.Eps) (theta int64, forced int, ok bool) {
	n := len(minEnv)
	for i := 0; i < n; {
		theta = s.minsDesc[i]
		// Skip the run of equal thresholds; with minsDesc sorted
		// descending, the index past the run is cntMin = |{MIN ≥ θ}|.
		j := i + 1
		for j < n && s.minsDesc[j] == theta {
			j++
		}
		cntMin := j
		i = j
		if cntMin < k {
			continue
		}
		// forced = |{(1-ε)·MAX > θ}| — a prefix of byMax.
		forced = sort.Search(n, func(j int) bool {
			return !gtScaled(maxEnv[s.byMax[j]], theta, e)
		})
		if forced > k {
			continue
		}
		// Every forced node needs MIN ≥ θ.
		if s.pmin[forced] < theta {
			continue
		}
		return theta, forced, true
	}
	return 0, 0, false
}

// feasible reports whether some k-set S satisfies
// min_{i∈S} MIN_i ≥ (1-ε)·max_{j∉S} MAX_j for the given envelopes.
//
// For each candidate threshold θ = min_S MIN (necessarily one of the MIN
// values), S must avoid every node with MIN below θ and must contain every
// node with (1-ε)·MAX above θ; those forced nodes form a prefix of the
// MAX-descending order. The check runs in O(n log n).
func (s *solver) feasible(minEnv, maxEnv []int64, k int, e eps.Eps) bool {
	if k == len(minEnv) {
		return true
	}
	s.prepare(minEnv, maxEnv)
	_, _, ok := s.findTheta(minEnv, maxEnv, k, e)
	return ok
}

func (s *solver) witness(minEnv, maxEnv []int64, k int, e eps.Eps) ([]int, bool) {
	n := len(minEnv)
	if k == n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, true
	}
	s.prepare(minEnv, maxEnv)
	theta, forced, ok := s.findTheta(minEnv, maxEnv, k, e)
	if !ok {
		return nil, false
	}
	return s.buildWitness(minEnv, forced, theta, k), true
}

// gtScaled reports (1-ε)·max > θ.
func gtScaled(max, theta int64, e eps.Eps) bool {
	return e.ClearlyBelow(theta, max) // θ < (1-ε)·max
}

// buildWitness assembles S: the forced prefix plus the highest-MIN fillers
// among the remaining θ-eligible nodes. The returned slice is freshly
// allocated — witnesses are retained in segments.
func (s *solver) buildWitness(minEnv []int64, forced int, theta int64, k int) []int {
	out := make([]int, 0, k)
	out = append(out, s.byMax[:forced]...)
	inS := func(id int) bool {
		for _, f := range s.byMax[:forced] {
			if f == id {
				return true
			}
		}
		return false
	}
	// Fill with eligible nodes (MIN ≥ θ) of largest MIN first
	// (canonical id tie-break).
	s.eligible = s.eligible[:0]
	for id, m := range minEnv {
		if m >= theta && !inS(id) {
			s.eligible = append(s.eligible, id)
		}
	}
	oracle.SortIDs(s.eligible, minEnv)
	for _, id := range s.eligible {
		if len(out) == k {
			break
		}
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Segment is a maximal communication-free interval [From, To] (inclusive)
// with a witnessing output set.
type Segment struct {
	From, To int
	Out      []int
}

// Result summarises an offline solve.
type Result struct {
	Segments []Segment
	// Breaks = len(Segments) - 1: the lower bound on OPT's messages used
	// by the competitive-ratio experiments.
	Breaks int
	// Realistic counts the Prop 2.4 two-filter deployment: per segment
	// one broadcast plus one unicast per node that switches sides.
	Realistic int64
}

// Solve computes the greedy maximal segmentation. Steady-state steps run a
// single allocation-free feasibility check on reused envelope and solver
// buffers; the witnessing output set is materialised only when a segment
// closes (the greedy envelope is maximal there, so the witness equals the
// one the last feasible extension would have produced).
func (in *Instance) Solve() Result {
	var res Result
	var s solver
	env := newEnvelope(in.Values[0])
	trial := newEnvelope(in.Values[0])
	start := 0
	closeSegment := func(to int) {
		out, ok := s.witness(env.min, env.max, in.K, in.Eps)
		if !ok {
			panic("offline: single step must always be feasible")
		}
		res.Segments = append(res.Segments, Segment{From: start, To: to, Out: out})
	}
	for t := 1; t < in.T(); t++ {
		trial.copyFrom(env)
		trial.extend(in.Values[t])
		if s.feasible(trial.min, trial.max, in.K, in.Eps) {
			env, trial = trial, env
			continue
		}
		closeSegment(t - 1)
		env.reset(in.Values[t])
		start = t
	}
	closeSegment(in.T() - 1)
	res.Breaks = len(res.Segments) - 1
	res.Realistic = in.realisticCost(res.Segments)
	return res
}

// realisticCost charges each segment one broadcast (the rest-side filter)
// plus a unicast per node entering the output side, as in the Prop 2.4 /
// Theorem 5.1 constructions.
func (in *Instance) realisticCost(segs []Segment) int64 {
	var cost int64
	prev := map[int]bool{}
	for si, s := range segs {
		cost++ // broadcast
		cur := make(map[int]bool, len(s.Out))
		for _, id := range s.Out {
			cur[id] = true
			if si == 0 || !prev[id] {
				cost++ // unicast filter to a node joining the output side
			}
		}
		prev = cur
	}
	return cost
}

// SigmaMax returns max_t σ(t) for the instance, the paper's σ parameter.
// No program calls it (sim.Run takes σ from its per-step validation); the
// tests of this package do.
func (in *Instance) SigmaMax() int {
	best := 0
	var sc oracle.Scratch
	for _, row := range in.Values {
		truth := oracle.ComputeInto(&sc, row, in.K, in.Eps)
		if truth.Sigma > best {
			best = truth.Sigma
		}
	}
	return best
}
