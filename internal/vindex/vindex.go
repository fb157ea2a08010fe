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
// in one flat array grouped by ascending bucket (byBucket) with a boundary
// offset per bucket (start) and, per node, its current bucket and position.
// All four arrays are allocated once in New and never grow:
//
//   - Update moves a node between adjacent buckets with one swap and a
//     boundary shift, so a value change costs O(|bucket distance|) ≤
//     O(log Δ) writes and the steady state allocates nothing.
//   - Span returns the candidate ids for a value interval as one zero-copy
//     subslice of byBucket, because the buckets intersecting [lo, hi] are
//     contiguous in the grouped array.
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
// serve it. But every filter is server-assigned, so the engine re-evaluates
// a node's (value, filter) pair at each change of either (Mirror) and
// maintains the exact violator set incrementally; Router resolves violation
// sweeps from that set the same way it resolves value sweeps from the
// buckets.
//
// # Max-find active list and the matcher form
//
// The max-find predicate (PredAboveActive) needs a flag no value bound
// expresses, and its first sweep of every run has the threshold -1, which
// admits every value. The Router therefore keeps the id-ordered list of the
// active nodes, edited by the three max-find broadcasts that are the only
// writers of the flag, and serves the predicate from it: no bucket span, no
// copy, no sort. With the three structures in place the only remaining
// full scans are tag predicates and domain-covering interval predicates.
//
// A sweep runs up to γ+1 EXISTENCE rounds over nodes whose state cannot
// change meanwhile, so Router.Matchers resolves the predicate once — route,
// Match every candidate, keep the matchers in id order — and the engines
// run the rounds over that list only: an active step costs its matchers,
// not candidates × rounds.
package vindex

import (
	"math/bits"
	"slices"

	"topkmon/internal/eps"
	"topkmon/internal/nodecore"
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
// Mirror, the max-find predicate from the Router's active list (at every
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

// Index is a value-bucket index over the node ids [base, base+n). The zero
// value is not usable; construct with New.
type Index struct {
	base int

	// byBucket holds every indexed id exactly once, grouped by ascending
	// bucket; start[b] is the offset of bucket b's segment, so bucket b is
	// byBucket[start[b]:start[b+1]] (possibly empty).
	byBucket []int32
	start    []int32

	// pos[id-base] is the id's position in byBucket; bkt[id-base] its
	// current bucket.
	pos []int32
	bkt []uint8
}

// New returns an index over the ids [base, base+n), all with value 0 — the
// state engine construction and Reset leave every node in.
func New(base, n int) *Index {
	ix := &Index{
		base:     base,
		byBucket: make([]int32, n),
		start:    make([]int32, numBuckets+1),
		pos:      make([]int32, n),
		bkt:      make([]uint8, n),
	}
	ix.Reset()
	return ix
}

// Reset rebuckets every indexed node to value 0 (bucket 0), matching the
// node state after an engine Reset. It reuses the arrays and allocates
// nothing.
func (ix *Index) Reset() {
	for i := range ix.byBucket {
		ix.byBucket[i] = int32(ix.base + i)
		ix.pos[i] = int32(i)
		ix.bkt[i] = 0
	}
	ix.start[0] = 0
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] = int32(len(ix.byBucket))
	}
}

// Update records that node id now holds value v, moving it between buckets
// when its magnitude class changed. The move walks adjacent bucket
// boundaries — one swap plus one boundary shift each — so it costs
// O(|bucket distance|) and never allocates.
func (ix *Index) Update(id int, v int64) {
	i := id - ix.base
	nb := uint8(BucketOf(v))
	ob := ix.bkt[i]
	if nb == ob {
		return
	}
	ix.bkt[i] = nb
	p := ix.pos[i]
	for b := ob; b < nb; b++ {
		// Swap to the end of bucket b, then pull b+1's boundary back over
		// the id so it becomes the first element of bucket b+1.
		last := ix.start[b+1] - 1
		ix.swap(p, last)
		ix.start[b+1] = last
		p = last
	}
	for b := ob; b > nb; b-- {
		// Symmetric: swap to the front of bucket b, push the boundary
		// forward, and the id becomes the last element of bucket b-1.
		first := ix.start[b]
		ix.swap(p, first)
		ix.start[b] = first + 1
		p = first
	}
}

func (ix *Index) swap(a, b int32) {
	if a == b {
		return
	}
	ia, ib := ix.byBucket[a], ix.byBucket[b]
	ix.byBucket[a], ix.byBucket[b] = ib, ia
	ix.pos[ia-int32(ix.base)], ix.pos[ib-int32(ix.base)] = b, a
}

// Span returns the ids of every indexed node whose value could lie in
// [lo, hi]: the contents of the buckets intersecting the interval, in no
// particular order. The result is a zero-copy view into the index — valid
// only until the next Update or Reset, and callers must not modify it. An
// empty interval (lo > hi) yields nil.
func (ix *Index) Span(lo, hi int64) []int32 {
	if lo > hi {
		return nil
	}
	bLo, bHi := BucketOf(lo), BucketOf(hi)
	return ix.byBucket[ix.start[bLo]:ix.start[bHi+1]]
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

// Len returns the number of indexed ids.
func (ix *Index) Len() int { return len(ix.byBucket) }

// Router bundles the value-bucket Index, the filter-interval Mirror and the
// max-find active list with the reusable scratch that turns a predicate into
// an id-ordered node scan list and into the id-ordered list of the nodes
// that match it. It is the single place the routing policy lives, shared by
// the lockstep engine and the live engine's worker shards — which
// predicates route through which structure and which fall back to the full
// scan can therefore never diverge between engines.
//
// # Active list
//
// active is exactly {nd : nd.MFActive}, in ascending id, over the routed
// nodes. It mirrors the flag and nothing else: the flag changes only in the
// three max-find broadcasts, so the Router applies them (MaxFindInit,
// MaxFindRaise, MaxFindExclude below) and edits the list in the same pass.
// A value change never touches it — whether an active node is still above
// a sweep's threshold is what Match decides, per sweep — and a broadcast
// the fault layer drops never reaches the Router, so the list stays
// exactly as stale as the flags are. Init appends in id order and Raise
// compacts in place, so the list is never sorted.
type Router struct {
	// Idx is the bucket index over the routed nodes; callers own its
	// maintenance (Update on value changes).
	Idx *Index

	// Mir is the violator set over the same nodes; callers own its
	// maintenance (Set on every node mutation — see the contract on
	// Mirror).
	Mir *Mirror

	active []*nodecore.Node

	cand  []int32
	scan  []*nodecore.Node
	match []*nodecore.Node
}

// NewRouter returns the routing structures over the ids [base, base+n) in
// the engines' construction state: every value 0, no violator, no node
// max-find-active. The scratch lists are sized for n up front, so no later
// call allocates.
func NewRouter(base, n int) Router {
	return Router{
		Idx:    New(base, n),
		Mir:    NewMirror(base, n),
		active: make([]*nodecore.Node, 0, n),
		cand:   make([]int32, 0, n),
		scan:   make([]*nodecore.Node, 0, n),
		match:  make([]*nodecore.Node, 0, n),
	}
}

// Reset returns the three structures to the node state after an engine
// Reset: every value 0, no violator, no node active.
func (r *Router) Reset() {
	r.Idx.Reset()
	r.Mir.Reset()
	r.active = r.active[:0]
}

// ScanList returns the nodes a predicate-routed primitive must visit out
// of nodes (whose i-th element must hold id base+i, the Idx id range), in
// ascending id order: the active list for the max-find predicate (at any
// threshold — an inactive node cannot match), the mirror's violator set
// for the violation predicate, the index candidates for an interval
// predicate's value bounds, or all of nodes for the two full-scan cases —
// tag predicates and domain-covering intervals, where routing could prune
// nothing and sorting candidates would only add cost. The result is the
// active list itself, nodes itself, or Router-owned scratch recycled by the
// next ScanList call; callers must not modify it. Candidate values may lie
// outside the bounds (bucket coarsening), so callers still Match every
// node — or take the matcher form, Matchers.
func (r *Router) ScanList(p wire.Pred, nodes []*nodecore.Node, base int) []*nodecore.Node {
	if !Routable(p) {
		return nodes
	}
	switch p.Kind {
	case wire.PredAboveActive:
		return r.active
	case wire.PredViolating:
		r.cand = r.Mir.AppendViolators(r.cand[:0])
	default:
		lo, hi, _ := p.Bounds()
		r.cand = r.Idx.AppendSorted(r.cand[:0], lo, hi)
	}
	r.scan = r.scan[:0]
	for _, id := range r.cand {
		r.scan = append(r.scan, nodes[int(id)-base])
	}
	return r.scan
}

// ScanSize returns len(ScanList(p, nodes, base)) without building the list:
// what routing p would visit, read from the three structures' lengths. The
// live engine prices a pending Collect or sweep round with it before
// deciding who executes the flush.
func (r *Router) ScanSize(p wire.Pred) int {
	if !Routable(p) {
		return r.Idx.Len()
	}
	switch p.Kind {
	case wire.PredAboveActive:
		return len(r.active)
	case wire.PredViolating:
		return r.Mir.NumViolating()
	default:
		lo, hi, _ := p.Bounds()
		return len(r.Idx.Span(lo, hi))
	}
}

// Matchers is the matcher form of ScanList: it routes the predicate,
// evaluates Match on every candidate once, and returns the nodes that
// match, in ascending id order. Node state cannot change while an
// EXISTENCE sweep runs, so a sweep resolves its matchers once and runs all
// its rounds over this list. The result is Router-owned scratch recycled by
// the next Matchers or Resolve call.
func (r *Router) Matchers(p wire.Pred, nodes []*nodecore.Node, base int) []*nodecore.Node {
	return r.Resolve(p, r.ScanList(p, nodes, base))
}

// Resolve returns the nodes of scan that match p, in scan order — the
// second half of Matchers, for a caller that chose the candidates itself
// (the lockstep engine's FullScan ablation hands it every node).
func (r *Router) Resolve(p wire.Pred, scan []*nodecore.Node) []*nodecore.Node {
	r.match = r.match[:0]
	for _, nd := range scan {
		if nd.Match(p) {
			r.match = append(r.match, nd)
		}
	}
	return r.match
}

// MaxFindInit applies the broadcast to every routed node and rebuilds the
// active list in the same O(n) pass.
func (r *Router) MaxFindInit(nodes []*nodecore.Node, floor int64, reset bool) {
	r.active = r.active[:0]
	for _, nd := range nodes {
		nd.MaxFindInit(floor, reset)
		if nd.MFActive {
			r.active = append(r.active, nd)
		}
	}
}

// MaxFindRaise applies the broadcast to the active nodes — it can only
// deactivate, so no other node's state could change — and compacts the
// list in place.
func (r *Router) MaxFindRaise(holder int, best int64) {
	keep := r.active[:0]
	for _, nd := range r.active {
		nd.MaxFindRaise(holder, best)
		if nd.MFActive {
			keep = append(keep, nd)
		}
	}
	r.active = keep
}

// MaxFindExclude applies the broadcast to the one node it names, which the
// caller looked up among the routed nodes: nd leaves the active list if it
// is on it, and is benched either way.
func (r *Router) MaxFindExclude(nd *nodecore.Node) {
	if nd.MFActive {
		i, _ := slices.BinarySearchFunc(r.active, nd.ID, func(a *nodecore.Node, id int) int { return a.ID - id })
		r.active = slices.Delete(r.active, i, i+1)
	}
	nd.MaxFindExclude(nd.ID)
}
