package nodecore

import (
	"fmt"
	"slices"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

// ReportCap is the initial capacity of the engines' report buffers: a
// terminating EXISTENCE round has O(1) senders in expectation and a
// protocol's collects return k + σ reports, so a run whose reports stay
// below it never allocates after construction. Larger results grow a buffer
// once.
const ReportCap = 64

// CheckAdvance and CheckValue are the argument checks of both Advance
// forms, shared by the engines so they reject the same calls with the same
// text after their package prefix pkg. CheckAdvance runs once per call and
// panics unless values has one entry per node of an n-node cluster.
func CheckAdvance(pkg string, n int, values []int64) {
	if len(values) != n {
		panic(fmt.Sprintf("%s: Advance with %d values for %d nodes", pkg, len(values), n))
	}
}

// CheckValue runs once per observation the call installs and panics unless
// v, the value for node id, lies in the supported domain [0, eps.MaxValue].
// It sits in the engines' per-observation loops, so it is small enough to
// inline and builds its message out of line; a separate checking pass over
// the observations cost more than the install it guards.
func CheckValue(pkg string, id int, v int64) {
	if v < 0 || v > eps.MaxValue {
		badValue(pkg, id, v)
	}
}

// badValue stays out of line so that CheckValue inlines.
//
//go:noinline
func badValue(pkg string, id int, v int64) {
	panic(fmt.Sprintf("%s: value %d for node %d outside [0, %d]", pkg, v, id, eps.MaxValue))
}

// Shard owns the nodes of the id range [base, base+n) together with the
// three structures the engines route predicates through: the value-bucket
// index (vindex.Index), the violator set (vindex.Mirror) and the id-ordered
// list of the max-find-active nodes. The lockstep engine holds one Shard
// over all its nodes, the live engine one per worker; which predicates
// route through which structure, and which fall back to the full scan, is
// decided here and can therefore never diverge between them.
//
// # Node-mutation contract
//
// Node.Value and Node.Filter are THE value and THE filter of a node inside
// an engine; every structure above is derived from them and holds neither.
// The Shard is the only code that changes a node, and each of its mutators
// re-derives the node's entries in the same call, from the node:
//
//   - Install (an observation of either Advance form): the bucket and the
//     violator bit.
//   - SetFilter, SetTagFilter, ApplyRule: the violator bit, read from the
//     filter the node now holds (no tag state of its own).
//   - MaxFindInit, MaxFindRaise, MaxFindExclude, the only writers of the
//     max-find flag: the active list. A value change never touches it —
//     whether an active node is still above a sweep's threshold is what
//     Match decides, per sweep.
//   - Reset: the node state New constructs, an empty index, violator set
//     and active list.
//
// A broadcast the fault layer drops never reaches the Shard, so the
// structures stay exactly as stale as the nodes are (FuzzFilterMirror,
// FuzzActiveList). Code outside the Shard reads nodes (Node, Nodes) and
// must never mutate one: a Value or Filter changed behind the Shard's back
// desyncs the index and the violator set.
//
// On the read side, node state cannot change while an EXISTENCE sweep
// runs, so a sweep resolves its matchers once (Matchers, or Resolve over a
// caller-chosen scan) and then draws one coin round at a time over the
// kept list (Draw): an active step costs its matchers, not candidates ×
// rounds. A Shard is not safe for concurrent use; the live engine hands
// each one to one executor per flush.
type Shard struct {
	base  int
	nodes []*Node

	idx    *vindex.Index
	mir    *vindex.Mirror
	active []*Node

	cand []int32
	scan []*Node
	kept []*Node
}

// NewShard returns the nodes [base, base+n), each with its Child stream of
// root, and the routing structures over them in construction state: every
// value 0, no violator, no node max-find-active. The lists are sized for n
// up front, so no later call allocates.
func NewShard(base, n int, root *rngx.Source) *Shard {
	s := &Shard{
		base:   base,
		nodes:  make([]*Node, n),
		idx:    vindex.New(base, n),
		mir:    vindex.NewMirror(base, n),
		active: make([]*Node, 0, n),
		cand:   make([]int32, 0, n),
		scan:   make([]*Node, 0, n),
		kept:   make([]*Node, 0, n),
	}
	for i := range s.nodes {
		s.nodes[i] = New(base+i, root)
	}
	return s
}

// Nodes returns the shard's nodes in id order. Read-only: see the
// node-mutation contract.
func (s *Shard) Nodes() []*Node { return s.nodes }

// Node returns the node with absolute id id. Read-only, like Nodes.
func (s *Shard) Node(id int) *Node { return s.nodes[id-s.base] }

// Install records the observation v at node id.
func (s *Shard) Install(id int, v int64) {
	nd := s.Node(id)
	nd.Observe(v)
	s.idx.Update(id, v)
	s.mir.Set(id, v, nd.Filter)
}

// ApplyRule applies a broadcast filter rule to every node.
func (s *Shard) ApplyRule(r *wire.FilterRule) {
	for _, nd := range s.nodes {
		nd.ApplyFilterRule(r)
		s.mir.Set(nd.ID, nd.Value, nd.Filter)
	}
}

// SetFilter applies a unicast filter assignment to node id.
func (s *Shard) SetFilter(id int, iv filter.Interval) {
	nd := s.Node(id)
	nd.SetFilter(iv)
	s.mir.Set(id, nd.Value, iv)
}

// SetTagFilter applies a unicast tag and filter assignment to node id.
func (s *Shard) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	s.Node(id).SetTag(t)
	s.SetFilter(id, iv)
}

// MaxFindInit applies the broadcast to every node and rebuilds the active
// list in the same O(n) pass.
func (s *Shard) MaxFindInit(floor int64, reset bool) {
	s.active = s.active[:0]
	for _, nd := range s.nodes {
		nd.MaxFindInit(floor, reset)
		if nd.MFActive {
			s.active = append(s.active, nd)
		}
	}
}

// MaxFindRaise applies the broadcast to the active nodes — it can only
// deactivate, so no other node's state could change — and compacts the
// list in place.
func (s *Shard) MaxFindRaise(holder int, best int64) {
	keep := s.active[:0]
	for _, nd := range s.active {
		nd.MaxFindRaise(holder, best)
		if nd.MFActive {
			keep = append(keep, nd)
		}
	}
	s.active = keep
}

// MaxFindExclude applies the broadcast to the one node it names: the node
// leaves the active list if it is on it, and is benched either way.
func (s *Shard) MaxFindExclude(id int) {
	nd := s.Node(id)
	if nd.MFActive {
		i, _ := slices.BinarySearchFunc(s.active, id, func(a *Node, id int) int { return a.ID - id })
		s.active = slices.Delete(s.active, i, i+1)
	}
	nd.MaxFindExclude(id)
}

// Reset returns every node to the state New(id, root) constructs and the
// structures to NewShard's, reusing every array.
func (s *Shard) Reset(root *rngx.Source) {
	for _, nd := range s.nodes {
		nd.Reset(root)
	}
	s.idx.Reset()
	s.mir.Reset()
	s.active = s.active[:0]
	s.kept = s.kept[:0]
}

// ScanList returns the nodes a predicate-routed primitive must visit, in
// ascending id order: the active list for the max-find predicate (at any
// threshold — an inactive node cannot match), the violator set for the
// violation predicate, the index candidates for an interval predicate's
// value bounds, or all nodes for the two full-scan cases — tag predicates
// and domain-covering intervals, where routing could prune nothing and
// sorting candidates would only add cost. The result is the active list,
// Nodes, or scratch recycled by the next ScanList call; callers must not
// modify it. Candidate values may lie outside the bounds (bucket
// coarsening), so callers still Match every node — or take Matchers.
func (s *Shard) ScanList(p wire.Pred) []*Node {
	if !vindex.Routable(p) {
		return s.nodes
	}
	switch p.Kind {
	case wire.PredAboveActive:
		return s.active
	case wire.PredViolating:
		s.cand = s.mir.AppendViolators(s.cand[:0])
	default:
		lo, hi, _ := p.Bounds()
		s.cand = s.idx.AppendSorted(s.cand[:0], lo, hi)
	}
	s.scan = s.scan[:0]
	for _, id := range s.cand {
		s.scan = append(s.scan, s.Node(int(id)))
	}
	return s.scan
}

// ScanSize returns len(ScanList(p)) without building the list, read from
// the structures' lengths. The live engine prices a pending Collect or
// sweep round with it before deciding who executes the flush.
func (s *Shard) ScanSize(p wire.Pred) int {
	if !vindex.Routable(p) {
		return len(s.nodes)
	}
	switch p.Kind {
	case wire.PredAboveActive:
		return len(s.active)
	case wire.PredViolating:
		return s.mir.NumViolating()
	default:
		lo, hi, _ := p.Bounds()
		return len(s.idx.Span(lo, hi))
	}
}

// Matchers is Resolve over ScanList(p): the nodes matching p, in ascending
// id order, kept for Draw.
func (s *Shard) Matchers(p wire.Pred) []*Node { return s.Resolve(p, s.ScanList(p)) }

// Resolve evaluates p once on every node of scan and keeps those that
// match, in scan order, as the list Draw draws over; the lockstep engine's
// FullScan ablation hands it Nodes. The result is that kept list, valid
// until the next Resolve, Matchers or Reset.
func (s *Shard) Resolve(p wire.Pred, scan []*Node) []*Node {
	s.kept = s.kept[:0]
	for _, nd := range scan {
		if nd.Match(p) {
			s.kept = append(s.kept, nd)
		}
	}
	return s.kept
}

// Kept returns the length of the kept matcher list.
func (s *Shard) Kept() int { return len(s.kept) }

// Draw runs one EXISTENCE round over the kept matchers: in id order, each
// sends with probability prob (one coin from its own stream, none in the
// final round, where prob is 1), and the reports of those that send are
// appended to dst.
func (s *Shard) Draw(dst []wire.Report, prob float64) []wire.Report {
	for _, nd := range s.kept {
		if nd.RNG.Bool(prob) {
			dst = append(dst, nd.Report())
		}
	}
	return dst
}

// Collect appends the reports of p's matchers to dst in ascending id order.
// It routes like Matchers but leaves the kept list alone.
func (s *Shard) Collect(dst []wire.Report, p wire.Pred) []wire.Report {
	for _, nd := range s.ScanList(p) {
		if nd.Match(p) {
			dst = append(dst, nd.Report())
		}
	}
	return dst
}
