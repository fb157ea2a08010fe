package nodecore

import (
	"fmt"
	"math"
	"slices"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
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
// A node is a row: the nodes are one []Node, and every list the Shard keeps
// or returns (the active list, the routed candidates, the full scan, the
// kept matchers) is a []int32 of absolute ids, looked up with Node.
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
//   - Reset: the node state New constructs, an empty index, violator set,
//     active list and exclusion list, no watermark, no pending raise.
//
// Max-find participation is not node state. The active list is the one
// record of which nodes are active, and a sorted exclusion list holds the
// nodes the current top-m computation has found (at most m ids); MaxFind
// reads both for one node. MaxFindInit, MaxFindRaise and MaxFindExclude
// are their only writers, and no row is written for them:
//
//   - MaxFindInit clears the exclusions when reset is set and rebuilds the
//     active list: at a floor below 0, which every value exceeds
//     (CheckValue), as the ids minus the exclusions by segment copies; at
//     any other floor by a pass that tests values.
//   - MaxFindRaise only records (holder, best). The next reader of the
//     active list — ScanList, Keep, Collect, Install or Advance,
//     MaxFindExclude, or another raise — applies it in one compaction that
//     drops the holder and every node not above best, so the raise is
//     applied against the values it was announced over. A MaxFindInit or
//     Reset discards it.
//   - MaxFindExclude takes its node off the active list and adds it to the
//     exclusion list.
//
// A value change never touches the active list: whether an active node is
// still above a sweep's threshold is what Keep decides, per sweep.
// MaxFindInit and MaxFindRaise also set the floor watermark, a value every
// active node's value exceeds: Init's floor, and after a Raise the larger
// of that and the raised best. Install invalidates it as above; Reset, and
// an Init at math.MinInt64, leave none. While it is known, a resolve of
// AboveActive(x) over the active list with x at or below it keeps the
// list itself without testing a node — the case of every sweep of a
// max-find run.
//
// A broadcast the fault layer drops never reaches the Shard, so the
// structures stay exactly as stale as the model's nodes would be
// (FuzzFilterMirror, FuzzActiveList). Code outside the Shard reads nodes
// (Node) and must never mutate one: a Value or Filter changed behind the
// Shard's back desyncs the index and the violator set.
//
// On the read side, node state cannot change while an EXISTENCE sweep
// runs, so a sweep resolves its matchers once (Resolve: Keep over
// ScanList), and the server, which draws each round's sender ranks over
// them, reads the reports at those ranks of the kept list (Senders,
// KeptReport). An active step costs its matchers once and its senders, not
// candidates × rounds. Every candidate list comes from ScanList, which
// also counts the candidates (Visited) and obeys the FullScan ablation. A
// Shard is not safe for concurrent use; the live engine hands each one to
// one executor per call.
type Shard struct {
	base  int
	nodes []Node
	ids   []int32 // every id in order: the full scan

	idx    *vindex.Index
	mir    *vindex.Mirror
	active []int32
	floor  int64 // under every active value, or noFloor

	cand []int32
	kept []int32 // keptBuf[:k], or the active list itself

	// FullScan makes ScanList return every id, ignoring the routing
	// structures. Ablation scaffolding for the index equivalence property
	// tests and BenchmarkViolationSweep; leave false otherwise. It never
	// perturbs outputs, counters, or the server's draws — only the scan
	// cost. Reset clears it.
	FullScan bool
	visited  int64 // candidates ScanList returned, see Visited

	keptBuf []int32
	excl    []int32 // the current top-m computation's found nodes, ascending

	// raised marks a MaxFindRaise not yet applied to the active list; it
	// drops raiseHolder and every node not above raiseBest.
	raised      bool
	raiseHolder int
	raiseBest   int64
}

// noFloor is the floor watermark when none is known.
const noFloor = math.MinInt64

// NewShard returns the nodes [base, base+n) and the routing structures
// over them in construction state: every value 0, no violator, no node
// max-find-active. The nodes are one allocation and the lists are sized for
// n up front, so no later call allocates.
func NewShard(base, n int) *Shard {
	s := &Shard{
		base:    base,
		nodes:   make([]Node, n),
		ids:     make([]int32, n),
		idx:     vindex.New(base, n),
		mir:     vindex.NewMirror(base, n),
		active:  make([]int32, 0, n),
		floor:   noFloor,
		cand:    make([]int32, 0, n),
		keptBuf: make([]int32, n),
		excl:    make([]int32, 0, n),
	}
	for i := range s.nodes {
		s.ids[i] = int32(base + i)
		s.nodes[i].ID = base + i
		s.nodes[i].Reset()
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

// Install records the observation v at node id. A pending raise is applied
// first, against the values it was announced over.
func (s *Shard) Install(id int, v int64) {
	if s.raised {
		s.applyRaise()
	}
	s.install(id, v)
}

// install is Install with no raise pending.
func (s *Shard) install(id int, v int64) {
	if v <= s.floor && len(s.active) > 0 && s.onList(id) {
		s.floor = noFloor
	}
	nd := s.Node(id)
	nd.Observe(v)
	s.idx.Update(id, v)
	s.mir.Set(id, v, nd.Filter)
}

// Advance installs values[id] at node id for every id of ids, in that
// order, or at every node of the shard when ids is nil; values is indexed
// by absolute id. Each value passes CheckValue before it is installed. It
// returns the largest value installed, 0 if none was.
func (s *Shard) Advance(values []int64, ids []int) (top int64) {
	if s.raised {
		s.applyRaise()
	}
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
		s.install(id, v)
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

// MaxFindInit applies the broadcast: with reset the exclusions are
// cleared, a pending raise is discarded, and the active list becomes every
// node not excluded whose value exceeds floor. Below 0 the floor is under
// every value, so the list is the ids minus the exclusions, copied segment
// by segment; any other floor takes one pass that tests values.
func (s *Shard) MaxFindInit(floor int64, reset bool) {
	if reset {
		s.excl = s.excl[:0]
	}
	s.raised = false
	s.floor = floor
	ids, active, base := s.ids, s.active[:0], s.base
	if floor < 0 {
		from := 0
		for _, id := range s.excl {
			active = append(active, ids[from:int(id)-base]...)
			from = int(id) - base + 1
		}
		s.active = append(active, ids[from:]...)
		return
	}
	nodes, excl := s.nodes, s.excl
	active, k := active[:len(nodes)], 0
	for i := range nodes {
		if len(excl) > 0 && excl[0] == ids[i] {
			excl = excl[1:]
			continue
		}
		active[k] = ids[i]
		k += b2i(nodes[i].Value > floor)
	}
	s.active = active[:k]
}

// MaxFindRaise records the broadcast announcing a new best (holder, value):
// the holder and every active node not exceeding the value drop out when
// the next reader of the active list applies it (applyRaise). A raise
// still pending is applied first, and the floor watermark rises to best at
// once, since no reader can see the list before the raise is applied.
// TestRaiseMatchesNodeHandler holds the pair equal to the per-node
// handler applied to every row.
func (s *Shard) MaxFindRaise(holder int, best int64) {
	if s.raised {
		s.applyRaise()
	}
	s.raised, s.raiseHolder, s.raiseBest = true, holder, best
	s.floor = max(s.floor, best)
}

// applyRaise applies the pending raise in one in-place compaction of the
// active list: every id is stored, and the list grows past it only if the
// node is above the raised best. The holder reported best as its value, so
// the pass drops it too unless its value has since moved above best; then
// it is taken off the list on its own.
func (s *Shard) applyRaise() {
	s.raised = false
	nodes, base, active, best := s.nodes, s.base, s.active, s.raiseBest
	k := 0
	for _, id := range active {
		active[k] = id
		k += b2i(nodes[int(id)-base].Value > best)
	}
	s.active = active[:k]
	if h := s.raiseHolder; uint(h-base) < uint(len(nodes)) && nodes[h-base].Value > best {
		if i, ok := slices.BinarySearch(s.active, int32(h)); ok {
			s.active = slices.Delete(s.active, i, i+1)
		}
	}
}

// MaxFindExclude applies the broadcast to the one node it names: the node
// leaves the active list if it is on it, and joins the exclusion list
// either way.
func (s *Shard) MaxFindExclude(id int) {
	if s.raised {
		s.applyRaise()
	}
	if i, ok := slices.BinarySearch(s.active, int32(id)); ok {
		s.active = slices.Delete(s.active, i, i+1)
	}
	if i, ok := slices.BinarySearch(s.excl, int32(id)); !ok {
		s.excl = slices.Insert(s.excl, i, int32(id))
	}
}

// MaxFind returns node id's max-find flags as the broadcasts delivered so
// far make them: whether it takes part in the current max-find run, and
// whether the current top-m computation has excluded it. It reads a
// pending raise without applying it, so it changes nothing. No program
// calls it; the tests of this package and internal/lockstep do.
func (s *Shard) MaxFind(id int) (active, excluded bool) {
	active = s.onList(id) &&
		!(s.raised && (id == s.raiseHolder || s.Node(id).Value <= s.raiseBest))
	_, excluded = slices.BinarySearch(s.excl, int32(id))
	return active, excluded
}

// onList reports whether id is on the active list.
func (s *Shard) onList(id int) bool {
	_, ok := slices.BinarySearch(s.active, int32(id))
	return ok
}

// Reset returns every node to the state New(id) constructs and the
// structures to NewShard's, reusing every array.
func (s *Shard) Reset() {
	for i := range s.nodes {
		s.nodes[i].Reset()
	}
	s.idx.Reset()
	s.mir.Reset()
	s.active = s.active[:0]
	s.excl = s.excl[:0]
	s.raised = false
	s.floor = noFloor
	s.kept = s.keptBuf[:0]
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
// IDs for every predicate. For the max-find predicate it applies a pending
// raise first. Its length is added to Visited.
func (s *Shard) ScanList(p wire.Pred) []int32 {
	if s.raised && p.Kind == wire.PredAboveActive {
		s.applyRaise()
	}
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
// size of its scan list, once, since a sweep resolves its matchers in its
// first round and its rounds visit no further candidate. A max-find
// scan the floor watermark keeps whole counts in full, though no node is
// tested. Work accounting for measuring the routing's selectivity
// (experiment E12), not message cost.
func (s *Shard) Visited() int64 { return s.visited }

// ScanSize returns the node visits routing p costs, read from the
// structures' lengths without building a list: len(ScanList(p)), except
// that with a raise pending the max-find predicate's is the length of the
// active list before ScanList's compaction, which visits every id of it.
// The live engine prices a Collect or a sweep's Resolve with it before
// deciding who runs the call.
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

// Keep evaluates p once on every node of scan, which ascends, and keeps
// the ids of those that match, in scan order: a sweep's matchers, whose
// ranks the server draws the senders over. Each kind is one loop that
// stores every id and keeps it if its node matches, as Match decides; a
// max-find scan that is not the active list walks the list beside it, and
// one that is the active list at a threshold the floor watermark covers
// is kept as it is, the list itself. The result is that kept list, valid
// until the next call that changes the Shard or keeps again.
func (s *Shard) Keep(p wire.Pred, scan []int32) []int32 {
	nodes, base := s.nodes, s.base
	kept, k := s.keptBuf[:len(scan)], 0
	switch p.Kind {
	case wire.PredAboveActive:
		if s.raised {
			s.applyRaise()
		}
		if !s.isActive(scan) {
			active := s.active
			for _, id := range scan {
				for len(active) > 0 && active[0] < id {
					active = active[1:]
				}
				kept[k] = id
				k += b2i(len(active) > 0 && active[0] == id && nodes[int(id)-base].Value > p.X)
			}
			break
		}
		if p.X <= s.floor && s.floor != noFloor {
			s.kept = scan
			return scan
		}
		for _, id := range scan {
			kept[k] = id
			k += b2i(nodes[int(id)-base].Value > p.X)
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

// Resolve implements cluster.Nodes: it keeps the matchers of an EXISTENCE
// sweep for p (Keep over ScanList) and returns how many there are.
func (s *Shard) Resolve(p wire.Pred) int { return len(s.Keep(p, s.ScanList(p))) }

// Kept returns the length of the kept matcher list.
func (s *Shard) Kept() int { return len(s.kept) }

// KeptReport returns the report of the kept matcher of rank i, 0 ≤ i <
// Kept().
func (s *Shard) KeptReport(i int) wire.Report { return s.nodes[int(s.kept[i])-s.base].Report() }

// Senders implements cluster.Nodes: it appends to dst the reports of the
// kept matchers at ranks, which ascend, so dst gets them in id order.
func (s *Shard) Senders(dst []wire.Report, ranks []int32) []wire.Report {
	for _, r := range ranks {
		dst = append(dst, s.KeptReport(int(r)))
	}
	return dst
}

// Collect appends the reports of p's matchers to dst in ascending id order.
// It routes through ScanList like a sweep but leaves the kept list alone.
// Only a max-find scan under FullScan holds inactive nodes, and only there
// is a node's activity looked up.
func (s *Shard) Collect(dst []wire.Report, p wire.Pred) []wire.Report {
	scan := s.ScanList(p)
	allActive := p.Kind != wire.PredAboveActive || s.isActive(scan)
	for _, id := range scan {
		if nd := s.Node(int(id)); nd.Match(p) && (allActive || s.onList(int(id))) {
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
