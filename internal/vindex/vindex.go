// Package vindex maintains a value-bucketed index over node ids so that the
// engines' predicate-routed primitives (Sweep, Collect) visit only the nodes
// whose values can possibly match, instead of scanning all n nodes per
// round — the step cost then tracks the number of plausible matchers (σ in
// the paper's σ-dependent bounds), not n. The value-ordered organisation
// follows the companion top-k-position work (arXiv:1410.7912) and the
// communication-efficient top-k structures of arXiv:1709.07259, which touch
// only O(σ + polylog) candidates per operation.
//
// # Layout
//
// Buckets are power-of-two value classes: bucket 0 holds value 0 and bucket
// b ≥ 1 holds values in [2^(b-1), 2^b - 1], so there are O(log Δ) buckets
// over the supported domain [0, eps.MaxValue]. The index keeps every node id
// in one flat array grouped by ascending bucket, with a boundary offset per
// bucket and, per node, its current bucket and position (Groups). All four
// arrays are allocated once in New and never grow:
//
//   - Update moves a node between adjacent buckets with one swap and a
//     boundary shift, so a value change costs O(|bucket distance|) ≤
//     O(log Δ) writes and the steady state allocates nothing.
//   - Span returns the candidate ids for a value interval as one zero-copy
//     subslice of the grouped array, because the buckets intersecting
//     [lo, hi] are contiguous in it.
//
// A bucket is a coarsening: Span is a superset of the true matchers (the
// boundary buckets can hold values just outside [lo, hi]), so callers must
// still evaluate the predicate per candidate. Correctness only needs the
// necessary-condition direction — every node with a value in [lo, hi] IS in
// the span — which is what makes index-routed sweeps byte-identical to full
// scans (asserted by the lockstep index property tests).
//
// # Filter-interval mirror
//
// The violation predicate (PredViolating) has no value bounds — a match
// depends on each node's assigned filter — so bucket routing alone cannot
// serve it. But every filter is server-assigned, so the owner of the nodes
// re-evaluates a node's (value, filter) pair at each change of either
// (Mirror) and maintains the exact violator set incrementally.
//
// Both structures hold ids, never nodes. The nodes, the max-find active
// list and the routing policy over all three live in nodecore.Shard, whose
// doc comment states when each entry is re-derived.
package vindex

import (
	"math/bits"
	"slices"

	"topkmon/internal/eps"
	"topkmon/internal/wire"
)

// numBuckets is the number of power-of-two value classes needed for the
// supported domain [0, eps.MaxValue]: bucket 0 plus one per magnitude.
var numBuckets = bits.Len64(uint64(eps.MaxValue)) + 1

// BucketOf returns the bucket of value v: 0 for v ≤ 0, otherwise the number
// of significant bits of v (so bucket b holds [2^(b-1), 2^b - 1]), clamped
// to the last bucket for values beyond eps.MaxValue — those only appear as
// query endpoints, never as indexed values (engines reject them on Advance).
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// FullRange reports whether the value interval [lo, hi] covers the entire
// supported domain, i.e. routing through the index would visit every node
// anyway and the caller should use its plain full scan instead (the cheaper
// of the two when nothing can be pruned).
func FullRange(lo, hi int64) bool {
	return lo <= 0 && hi >= eps.MaxValue
}

// Routable reports whether predicate p can be served from the engines'
// routing structures: the violation predicate from the filter-interval
// Mirror, the max-find predicate from nodecore.Shard's active list (at every
// threshold, AboveActive(-1) included), interval predicates from the
// value-bucket Index when their Bounds do not cover the whole domain. The
// negation is exactly the full node scan both engines count through
// metrics.Counters.IndexFallback, and two cases remain — tag predicates
// (the only state-decided matches left) and domain-covering intervals. The
// decision depends on the predicate alone, so the engines can never
// disagree.
func Routable(p wire.Pred) bool {
	switch p.Kind {
	case wire.PredViolating, wire.PredAboveActive:
		return true
	}
	lo, hi, ok := p.Bounds()
	return ok && !FullRange(lo, hi)
}

// Index is a value-bucket index over the node ids [base, base+n): Groups
// over the buckets, an id's group being the bucket of its value. The zero
// value is not usable; construct with New.
type Index struct {
	g   Groups
	bkt []uint8 // bkt[id-base] is the id's bucket
}

// New returns an index over the ids [base, base+n), all with value 0 — the
// state engine construction and Reset leave every node in.
func New(base, n int) *Index {
	ix := &Index{bkt: make([]uint8, n)}
	ix.g.init(base, n, numBuckets)
	return ix
}

// Reset rebuckets every indexed node to value 0 (bucket 0), matching the
// node state after an engine Reset. It reuses the arrays and allocates
// nothing.
func (ix *Index) Reset() {
	ix.g.Reset()
	clear(ix.bkt)
}

// Update records that node id now holds value v, moving it between buckets
// when its magnitude class changed (Groups.Move): O(|bucket distance|),
// and never allocating.
func (ix *Index) Update(id int, v int64) {
	i := id - ix.g.base
	if b := uint8(BucketOf(v)); b != ix.bkt[i] {
		ix.g.Move(id, int(ix.bkt[i]), int(b))
		ix.bkt[i] = b
	}
}

// Holds reports whether node id's bucket is the one a value of v has, so
// that Update(id, v) would move nothing.
func (ix *Index) Holds(id int, v int64) bool { return ix.bkt[id-ix.g.base] == uint8(BucketOf(v)) }

// Span returns the ids of every indexed node whose value could lie in
// [lo, hi]: the contents of the buckets intersecting the interval, in no
// particular order. The result is a zero-copy view into the index — valid
// only until the next Update or Reset, and callers must not modify it. An
// empty interval (lo > hi) yields nil.
func (ix *Index) Span(lo, hi int64) []int32 {
	if lo > hi {
		return nil
	}
	return ix.g.Members(BucketOf(lo), BucketOf(hi))
}

// AppendSorted appends Span(lo, hi) to dst in ascending id order, reusing
// dst's capacity — the form the engines use to preserve their id-ordered
// report contract. Sorting costs O(c log c) in the candidate count c, which
// the full-range fallback (see FullRange) keeps below the O(n) scan it
// replaces; slices.Sort on []int32 allocates nothing.
func (ix *Index) AppendSorted(dst []int32, lo, hi int64) []int32 {
	n := len(dst)
	dst = append(dst, ix.Span(lo, hi)...)
	slices.Sort(dst[n:])
	return dst
}
