// Package oracle computes the ground truth of one time step — order
// statistics, the clearly-larger set E(t), the ε-neighborhood K(t), σ(t) —
// and validates monitor outputs against the two defining properties of
// ε-Top-k-Position Monitoring (Section 2):
//
//  1. F_E(t) = {i : v_i ∈ E(t)} ⊆ F(t), and
//  2. F(t) \ F_E(t) ⊆ K(t), with |F(t)| = k.
//
// The oracle sees all values directly; it is simulation scaffolding and
// never takes part in the protocols' communication.
//
// The oracle runs once per simulated time step, so its own cost dominates
// validation-heavy runs. The steady-state entry point is ComputeInto with a
// reused Scratch, which performs no allocations; Compute, a wrapper that
// allocates a fresh Scratch per call, is left for tests.
package oracle

import (
	"fmt"
	"slices"

	"topkmon/internal/eps"
)

// Compare orders two node ids by the paper's canonical stream order:
// decreasing value, ties broken by increasing identifier. It returns a
// negative number when a precedes b, following the cmp convention of
// slices.SortFunc. Every ordering of nodes in the reproduction — the
// oracle's π(·,t), the naive baseline's recomputation, the offline
// adversary's envelope orders — derives from this single comparator.
func Compare(values []int64, a, b int) int {
	if values[a] != values[b] {
		if values[a] > values[b] {
			return -1
		}
		return 1
	}
	return a - b
}

// SortIDs sorts ids in place into the canonical order over values.
func SortIDs(ids []int, values []int64) {
	slices.SortFunc(ids, func(a, b int) int { return Compare(values, a, b) })
}

// Packed-key sorting: (value, id) packed into one uint64 so the full index
// sort runs comparator-free — about 4× faster than a closure-based sort on
// this workload. MaxValue needs 41 bits (the bound is inclusive), leaving
// 23 bits for the id.
const (
	packIDBits = 23
	packIDMask = 1<<packIDBits - 1
)

// packable reports whether values admit the packed-key sort.
func packable(values []int64) bool {
	if len(values) > packIDMask {
		return false
	}
	for _, v := range values {
		if v < 0 || v > eps.MaxValue {
			return false
		}
	}
	return true
}

// sortIndexPacked fills order with [0, n) sorted canonically over values,
// using keys as working memory. Ascending keys of (MaxValue-value, id)
// realise (value desc, id asc).
func sortIndexPacked(order []int, keys []uint64, values []int64) {
	for i, v := range values {
		keys[i] = uint64(eps.MaxValue-v)<<packIDBits | uint64(i)
	}
	slices.Sort(keys)
	for i, k := range keys {
		order[i] = int(k & packIDMask)
	}
}

// Truth is the ground truth of a single time step.
type Truth struct {
	K      int
	Eps    eps.Eps
	Values []int64
	// Order lists node ids by decreasing (value, id); Order[0] is π(1,t).
	Order []int
	// VK is the k-th largest value v_{π(k,t)}.
	VK int64
	// Clearly is the set E(t)'s node ids: v > VK/(1-ε).
	Clearly []int
	// Neighborhood is K(t): (1-ε)·VK ≤ v ≤ VK/(1-ε).
	Neighborhood []int
	// Sigma is |K(t)|.
	Sigma int

	// scratch, when non-nil, backs the slices above and provides the
	// validation mark buffer; set by ComputeInto.
	scratch *Scratch
}

// Scratch holds the oracle's reusable working memory. One Scratch reused
// across all steps of a run keeps ComputeInto and the Validate methods at
// zero allocations in steady state. A Truth computed into a Scratch is valid
// only until the next ComputeInto with the same Scratch; callers that retain
// a Truth across steps must use Compute instead.
type Scratch struct {
	order   []int
	keys    []uint64
	clearly []int
	neigh   []int
	marks   []bool
}

// ComputeInto derives the truth for one step using s's buffers. It panics if
// k is out of range — a harness bug, not a data condition.
func ComputeInto(s *Scratch, values []int64, k int, e eps.Eps) Truth {
	n := len(values)
	if k < 1 || k > n {
		panic(fmt.Sprintf("oracle: k=%d out of range for n=%d", k, n))
	}
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
	if packable(values) {
		if cap(s.keys) < n {
			s.keys = make([]uint64, n)
		}
		s.keys = s.keys[:n]
		sortIndexPacked(s.order, s.keys, values)
	} else {
		for i := range s.order {
			s.order[i] = i
		}
		SortIDs(s.order, values)
	}

	t := Truth{K: k, Eps: e, Values: values, Order: s.order, scratch: s}
	t.VK = values[s.order[k-1]]

	clearly, neigh := s.clearly[:0], s.neigh[:0]
	for i, v := range values {
		if e.ClearlyAbove(v, t.VK) {
			clearly = append(clearly, i)
		} else if !e.ClearlyBelow(v, t.VK) {
			neigh = append(neigh, i)
		}
	}
	s.clearly, s.neigh = clearly, neigh
	t.Clearly, t.Neighborhood = clearly, neigh
	t.Sigma = len(neigh)
	return t
}

// Compute derives the truth for one step into fresh buffers; the result
// stays valid indefinitely. Hot loops should hold a Scratch and call
// ComputeInto instead. No program calls it; the tests of this package, of
// internal/protocol and internal/sim, and the root benchmarks do.
func Compute(values []int64, k int, e eps.Eps) Truth {
	return ComputeInto(new(Scratch), values, k, e)
}

// marks returns a cleared []bool of len(t.Values), reusing the scratch
// buffer when the Truth is scratch-backed.
func (t Truth) marks() []bool {
	n := len(t.Values)
	if t.scratch == nil {
		return make([]bool, n)
	}
	s := t.scratch
	if cap(s.marks) < n {
		s.marks = make([]bool, n)
	}
	s.marks = s.marks[:n]
	for i := range s.marks {
		s.marks[i] = false
	}
	return s.marks
}

// ValidateEps checks output out against the ε-Top-k properties.
func (t Truth) ValidateEps(out []int) error {
	if len(out) != t.K {
		return fmt.Errorf("output has %d nodes, want k=%d", len(out), t.K)
	}
	in := t.marks()
	for _, id := range out {
		if id < 0 || id >= len(t.Values) {
			return fmt.Errorf("output contains invalid node id %d", id)
		}
		if in[id] {
			return fmt.Errorf("output contains duplicate node id %d", id)
		}
		in[id] = true
	}
	for _, id := range t.Clearly {
		if !in[id] {
			return fmt.Errorf("node %d (value %d) is clearly above v_k=%d but missing from output",
				id, t.Values[id], t.VK)
		}
	}
	for _, id := range out {
		if t.Eps.ClearlyBelow(t.Values[id], t.VK) {
			return fmt.Errorf("node %d (value %d) is clearly below v_k=%d but in output",
				id, t.Values[id], t.VK)
		}
	}
	return nil
}

// ValidateExact checks output out against the exact top-k (tie-broken by id).
func (t Truth) ValidateExact(out []int) error {
	if len(out) != t.K {
		return fmt.Errorf("output has %d nodes, want k=%d", len(out), t.K)
	}
	want := t.marks()
	for _, id := range t.Order[:t.K] {
		want[id] = true
	}
	for _, id := range out {
		if id < 0 || id >= len(t.Values) {
			return fmt.Errorf("node %d in output but not a valid node id", id)
		}
		if !want[id] {
			return fmt.Errorf("node %d (value %d) in output but not in exact top-%d (v_k=%d)",
				id, t.Values[id], t.K, t.VK)
		}
	}
	return nil
}
