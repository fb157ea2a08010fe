package nodecore

import (
	"fmt"
	"math"
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

// CheckValue runs once per observation an Advance installs and panics
// unless v, the value for node id, lies in the supported domain
// [0, eps.MaxValue]. It sits in the per-observation loops of Shard.Advance
// and of the live engine's Advance, so it is small enough to inline and
// builds its message out of line; a separate checking pass over the
// observations cost more than the install it guards.
func CheckValue(id int, v int64) {
	if v < 0 || v > eps.MaxValue {
		badValue(id, v)
	}
}

// badValue stays out of line so that CheckValue inlines.
//
//go:noinline
func badValue(id int, v int64) {
	panic(fmt.Sprintf("nodecore: value %d for node %d outside [0, %d]", v, id, eps.MaxValue))
}

// Shard owns the nodes of the id range [base, base+n) together with the
// three structures the engines route predicates through: the value-bucket
// index (vindex.Index), the violator set (vindex.Mirror) and the id-ordered
// list of the max-find-active nodes. It is the node side of a cluster
// engine (it implements cluster.Nodes): the lockstep engine is a
// cluster.Server over one Shard of all its nodes, the live engine runs
// the same calls over one Shard per worker. Which predicates route through
// which structure, and which fall back to the full scan, is decided here
// and can therefore never diverge between them.
//
// A node is a row: the nodes are one []Node, each with its RNG stream in
// the row, and every list the Shard keeps or returns (the active list, the
// routed candidates, the full scan, the kept matchers) is a []int32 of
// absolute ids, looked up with Node.
//
// # Node-mutation contract
//
// Node.Value and Node.Filter are THE value and THE filter of a node inside
// an engine; every structure above is derived from them and holds neither.
// The Shard is the only code that changes a node, and each of its mutators
// re-derives the node's entries in the same call, from the node:
//
//   - Install (one observation of an Advance batch): the bucket and the
//     violator bit, and the floor watermark if the node is active and the
//     value at or below it.
//   - SetFilter, SetTagFilter, ApplyRule: the violator bit, read from the
//     filter the node now holds (no tag state of its own).
//   - MaxFindInit, MaxFindRaise, MaxFindExclude, the only writers of the
//     max-find flag: the active list. A value change never touches it —
//     whether an active node is still above a sweep's threshold is what
//     Match decides, per sweep.
//   - MaxFindInit and MaxFindRaise also set the floor watermark, a value
//     every active node's value exceeds: Init's floor, and after a Raise
//     the larger of that and the raised best. Install invalidates it as
//     above; Reset, and an Init at math.MinInt64, leave none. While it is
//     known, a resolve of AboveActive(x) over the active list with x at or
//     below it keeps the whole list without testing a node — the case of
//     every sweep of a max-find run.
//   - Reset: the node state New constructs, an empty index, violator set
//     and active list, no watermark.
//
// A broadcast the fault layer drops never reaches the Shard, so the
// structures stay exactly as stale as the nodes are (FuzzFilterMirror,
// FuzzActiveList). Code outside the Shard reads nodes (Node) and must
// never mutate one: a Value or Filter changed behind the Shard's back
// desyncs the index and the violator set.
//
// On the read side, node state cannot change while an EXISTENCE sweep
// runs, so a sweep resolves its matchers once (Resolve over ScanList, or
// over a caller-chosen scan) and then draws one coin round at a time over the
// kept list (Draw); Round is the two as one sweep round. An active step
// costs its matchers, not candidates × rounds. Every candidate list comes
// from ScanList, which also counts the candidates (Visited) and obeys the
// FullScan ablation. A Shard is not safe for concurrent use; the live
// engine hands each one to one executor per call.
type Shard struct {
	base  int
	nodes []Node
	ids   []int32 // every id in order: the full scan

	idx    *vindex.Index
	mir    *vindex.Mirror
	active []int32
	floor  int64 // under every active value, or noFloor

	cand []int32
	kept []int32

	// FullScan makes ScanList return every id, ignoring the routing
	// structures. Ablation scaffolding for the index equivalence property
	// tests and BenchmarkViolationSweep; leave false otherwise. It never
	// perturbs outputs, counters, or coin flips — only the scan cost.
	// Reset clears it.
	FullScan bool
	visited  int64 // candidates ScanList returned, see Visited
}

// noFloor is the floor watermark when none is known.
const noFloor = math.MinInt64

// NewShard returns the nodes [base, base+n), each with its Child stream of
// root, and the routing structures over them in construction state: every
// value 0, no violator, no node max-find-active. The nodes are one
// allocation and the lists are sized for n up front, so no later call
// allocates.
func NewShard(base, n int, root *rngx.Source) *Shard {
	s := &Shard{
		base:   base,
		nodes:  make([]Node, n),
		ids:    make([]int32, n),
		idx:    vindex.New(base, n),
		mir:    vindex.NewMirror(base, n),
		active: make([]int32, 0, n),
		floor:  noFloor,
		cand:   make([]int32, 0, n),
		kept:   make([]int32, 0, n),
	}
	for i := range s.nodes {
		s.ids[i] = int32(base + i)
		s.nodes[i].ID = base + i
		s.nodes[i].Reset(root)
	}
	return s
}

// Len returns the number of nodes in the shard. No program calls it; the
// tests of this package and internal/live do.
func (s *Shard) Len() int { return len(s.nodes) }

// IDs returns every id of the shard in ascending order: the scan of a full
// scan. Read-only. No program calls it; the tests of this package and
// internal/live do.
func (s *Shard) IDs() []int32 { return s.ids }

// Node returns the node with absolute id id. Read-only: see the
// node-mutation contract.
func (s *Shard) Node(id int) *Node { return &s.nodes[id-s.base] }

// Install records the observation v at node id.
func (s *Shard) Install(id int, v int64) {
	nd := s.Node(id)
	if nd.MFActive && v <= s.floor {
		s.floor = noFloor
	}
	nd.Observe(v)
	s.idx.Update(id, v)
	s.mir.Set(id, v, nd.Filter)
}

// Advance installs values[id] at node id for every id of ids, in that
// order, or at every node of the shard when ids is nil; values is indexed
// by absolute id. Each value passes CheckValue before it is installed. It
// returns the largest value installed, 0 if none was.
func (s *Shard) Advance(values []int64, ids []int) (top int64) {
	count := len(ids)
	if ids == nil {
		count = len(s.nodes)
	}
	for i := 0; i < count; i++ {
		id := s.base + i
		if ids != nil {
			id = ids[i]
		}
		v := values[id]
		CheckValue(id, v)
		s.Install(id, v)
		top = max(top, v)
	}
	return top
}

// ApplyRule applies a broadcast filter rule to every node.
func (s *Shard) ApplyRule(r *wire.FilterRule) {
	for i := range s.nodes {
		nd := &s.nodes[i]
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
// list in the same O(n) pass: every id is stored, and the list grows past
// it only if the node is active.
func (s *Shard) MaxFindInit(floor int64, reset bool) {
	nodes, ids := s.nodes, s.ids
	active, k := s.active[:len(nodes)], 0
	for i := range nodes {
		nd := &nodes[i]
		nd.MaxFindInit(floor, reset)
		active[k] = ids[i]
		k += b2i(nd.MFActive)
	}
	s.active = active[:k]
	s.floor = floor
}

// MaxFindRaise applies the broadcast announcing a new best (holder, value)
// to the active nodes: the holder and every node not exceeding the value
// drop out. It can only deactivate, so no other node's state could change,
// and it compacts the list in place like MaxFindInit. The pass drops every
// node not above best; the holder, if it is this shard's and survived it
// (its value moved above the one it reported), leaves afterwards.
// TestRaiseMatchesNodeHandler holds it equal to the per-node handler
// applied to every row.
func (s *Shard) MaxFindRaise(holder int, best int64) {
	nodes, base, active := s.nodes, s.base, s.active
	k := 0
	for _, id := range active {
		keep := nodes[int(id)-base].Value > best
		nodes[int(id)-base].MFActive = keep
		active[k] = id
		k += b2i(keep)
	}
	s.active = active[:k]
	s.floor = max(s.floor, best)
	if uint(holder-s.base) < uint(len(s.nodes)) && s.Node(holder).MFActive {
		s.deactivate(holder)
	}
}

// MaxFindExclude applies the broadcast to the one node it names: the node
// leaves the active list if it is on it, and is benched either way.
func (s *Shard) MaxFindExclude(id int) {
	if s.Node(id).MFActive {
		s.deactivate(id)
	}
	s.Node(id).MaxFindExclude(id)
}

// deactivate takes the active node id off the active list and clears its
// flag.
func (s *Shard) deactivate(id int) {
	i, _ := slices.BinarySearch(s.active, int32(id))
	s.active = slices.Delete(s.active, i, i+1)
	s.Node(id).MFActive = false
}

// Reset returns every node to the state New(id, root) constructs and the
// structures to NewShard's, reusing every array.
func (s *Shard) Reset(root *rngx.Source) {
	for i := range s.nodes {
		s.nodes[i].Reset(root)
	}
	s.idx.Reset()
	s.mir.Reset()
	s.active = s.active[:0]
	s.floor = noFloor
	s.kept = s.kept[:0]
	s.FullScan = false
	s.visited = 0
}

// ScanList returns the ids a predicate-routed primitive must visit, in
// ascending order: the active list for the max-find predicate (at any
// threshold — an inactive node cannot match), the violator set for the
// violation predicate, the index candidates for an interval predicate's
// value bounds, or IDs for the two full-scan cases — tag predicates and
// domain-covering intervals, where routing could prune nothing and sorting
// candidates would only add cost. The result is the active list, IDs, or
// scratch recycled by the next ScanList call; callers must not modify it.
// Candidate values may lie outside the bounds (bucket coarsening), so
// callers still Match every node, or Resolve the list. Under FullScan it is
// IDs for every predicate. Its length is added to Visited.
func (s *Shard) ScanList(p wire.Pred) []int32 {
	scan := s.ids
	switch {
	case s.FullScan || !vindex.Routable(p): // the full scan
	case p.Kind == wire.PredAboveActive:
		scan = s.active
	case p.Kind == wire.PredViolating:
		s.cand = s.mir.AppendViolators(s.cand[:0])
		scan = s.cand
	default:
		lo, hi, _ := p.Bounds()
		s.cand = s.idx.AppendSorted(s.cand[:0], lo, hi)
		scan = s.cand
	}
	s.visited += int64(len(scan))
	return scan
}

// Visited returns the cumulative number of candidates ScanList has
// returned since construction or the last Reset: per Collect or sweep, the
// size of its scan list, once, since a sweep resolves its matchers before
// its first round and its rounds visit no further candidate. A max-find
// scan the floor watermark keeps whole counts in full, though no node is
// tested. Work accounting for measuring the routing's selectivity
// (experiment E12), not message cost.
func (s *Shard) Visited() int64 { return s.visited }

// ScanSize returns len(ScanList(p)) without building the list, read from
// the structures' lengths. The live engine prices a Collect, a sweep round
// or a MaxFindRaise with it before deciding who runs the call.
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

// Resolve evaluates p once on every node of scan and keeps the ids of those
// that match, in scan order, as the list Draw draws over. Each kind is one
// loop that stores every id and keeps it if its node matches, as Node.Match
// decides; a max-find scan that is the active list at a threshold the
// floor watermark covers is kept whole. The result is that kept list, valid
// until the next Resolve or Reset.
func (s *Shard) Resolve(p wire.Pred, scan []int32) []int32 {
	nodes, base := s.nodes, s.base
	kept, k := s.kept[:len(scan)], 0
	switch p.Kind {
	case wire.PredAboveActive:
		if p.X <= s.floor && s.floor != noFloor && s.isActive(scan) {
			k = copy(kept, scan)
			break
		}
		for _, id := range scan {
			nd := &nodes[int(id)-base]
			kept[k] = id
			k += b2i(nd.MFActive && nd.Value > p.X)
		}
	case wire.PredViolating:
		for _, id := range scan {
			nd := &nodes[int(id)-base]
			kept[k] = id
			k += b2i(!nd.Filter.Contains(nd.Value))
		}
	case wire.PredInRange:
		for _, id := range scan {
			v := nodes[int(id)-base].Value
			kept[k] = id
			k += b2i(v >= p.X && v <= p.Y)
		}
	case wire.PredHasTag:
		for _, id := range scan {
			kept[k] = id
			k += b2i(nodes[int(id)-base].Tag == p.Tag)
		}
	}
	s.kept = kept[:k]
	return s.kept
}

// isActive reports whether scan is the active list itself, not merely
// equal to it.
func (s *Shard) isActive(scan []int32) bool {
	return len(scan) == len(s.active) && (len(scan) == 0 || &scan[0] == &s.active[0])
}

// Round runs round r of an EXISTENCE sweep for p: round 0 resolves the
// matchers (Resolve over ScanList), and every round with a matcher draws over them
// (Draw). It returns dst with the senders' reports appended, and the
// number of matchers.
func (s *Shard) Round(dst []wire.Report, p wire.Pred, r int, prob float64) ([]wire.Report, int) {
	if r == 0 {
		s.Resolve(p, s.ScanList(p))
	}
	if len(s.kept) == 0 {
		return dst, 0
	}
	return s.Draw(dst, prob), len(s.kept)
}

// Kept returns the length of the kept matcher list.
func (s *Shard) Kept() int { return len(s.kept) }

// Draw runs one EXISTENCE round over the kept matchers: in id order, each
// sends with probability prob (one coin from its own stream, none in the
// final round, where prob is 1), and the reports of those that send are
// appended to dst. The probability becomes an rngx.Threshold once per
// round, so a coin is the same as Bool(prob) draws without its float
// arithmetic.
func (s *Shard) Draw(dst []wire.Report, prob float64) []wire.Report {
	nodes, base, t := s.nodes, s.base, rngx.Threshold(prob)
	for _, id := range s.kept {
		nd := &nodes[int(id)-base]
		if nd.RNG.Below(t) {
			dst = append(dst, nd.Report())
		}
	}
	return dst
}

// Collect appends the reports of p's matchers to dst in ascending id order.
// It routes through ScanList like a sweep but leaves the kept list alone.
func (s *Shard) Collect(dst []wire.Report, p wire.Pred) []wire.Report {
	for _, id := range s.ScanList(p) {
		if nd := s.Node(int(id)); nd.Match(p) {
			dst = append(dst, nd.Report())
		}
	}
	return dst
}

// Probe returns node id's report.
func (s *Shard) Probe(id int) wire.Report { return s.Node(id).Report() }

// AppendFilters appends the filter of every node to dst in id order.
func (s *Shard) AppendFilters(dst []filter.Interval) []filter.Interval {
	for i := range s.nodes {
		dst = append(dst, s.nodes[i].Filter)
	}
	return dst
}

// b2i is 1 for true and 0 for false; the compactions above advance their
// write index by it instead of branching on the node.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
