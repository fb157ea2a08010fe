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
// structures the engines route predicates through: the value-bucket index
// (vindex.Index), the violator set (a vindex.Groups whose group 1 holds the
// violators, beside a bit in each row) and the id-ordered list of the
// max-find-active nodes, and the tag classes a node's tag and filter are
// derived from. It is the node side of a cluster engine (it
// implements cluster.Nodes): the lockstep engine is a cluster.Server over
// one Shard of all its nodes, the live engine runs the same calls over one
// Shard per worker. Which predicates route through which structure, and
// which fall back to the full scan, is decided here and can therefore never
// diverge between them.
//
// A node is a row: the rows are one []row, and every list the Shard keeps
// or returns (the active list, the routed candidates, the full scan, the
// kept matchers) is a []int32 of absolute ids. One method, recheck, keeps a
// node's violator bit and its group in the violator set; every mutator that
// can change whether a node violates calls it. Node returns a copy of one
// node, its tag and filter derived as below.
//
// # Tag classes
//
// A broadcast filter rule is one O(1)-size message from which every node
// works out its own tag and filter; the Shard applies it at the cost of
// what it changes, not n. Each tag owns one class slot: a group of the
// class partition (a vindex.Groups over the slots), which holds the ids of
// the nodes with that tag, and a class filter with the generation at which
// a rule set it. Each row holds the node's value, its slot and the
// generation of its own filter, the one its last unicast assigned, which
// is kept beside the rows. A node's tag is its slot's label; its filter is
// the class filter if a rule set it after the node's own assignment, its
// own filter otherwise (filterAt).
//
// ApplyRule has two phases. The retag phase computes every slot's tag
// after the rule first, so the retag map applies simultaneously; slots
// that map to one tag merge small into large: the largest keeps its slot
// and is relabelled, the others' nodes move into it, and a moved node
// whose new tag the rule does not set takes its filter along as its own.
// It costs the nodes moved. The set phase gives each class the rule sets
// its filter under one new generation, rechecks the violators of those
// classes (a forward walk over the violator group, which a cleared
// violator leaves by swapping with the group's first member, one the walk
// has passed), and finds their new violators by walking, per class, the
// cheaper of its members and the value-index spans outside its new
// interval — or, when the walks together would visit more than two thirds
// of the rows, by one read-only pass over them (plan).
// RuleVisits prices a rule the same way without applying it. The
// generation counter is rebased when it would wrap (nextGen).
//
// # Node-mutation contract
//
// A node's value, class slot, own filter and its generation, and the
// slots' labels and class filters are THE value, filter and tag of a node
// inside an engine; every structure above is derived from them. The Shard
// is the only code that changes them, and each of its mutators re-derives
// the node's entries in the same call:
//
//   - Install (one observation), Stage (one observation of a batch that
//     Settle ends) and Advance (a batch): the bucket and the violator bit,
//     and the floor watermark if the node is active and not above it. A
//     batch's bucket moves cost O(min(Σ distance, n)) (vindex.Index.Stage),
//     so a full-vector load is one O(n) regroup; every reader of the index
//     runs after the Settle.
//   - SetFilter, SetTagFilter: the node's own filter at the current
//     generation, its class slot (SetTagFilter) and its violator bit, in
//     O(1).
//   - ApplyRule: the slots of the nodes it moves, the labels and class
//     filters of the slots, and the violator bits of the classes it sets,
//     as above. A node it neither moves nor walks is not visited.
//   - Reset: the state NewShard constructs — every value 0, every node in
//     TagNone's slot under the all-admitting filter, an empty index,
//     violator set, active list and exclusion list, no watermark, no
//     pending raise.
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
//     a floor whose value-index span holds at most an eighth of the shard
//     (InitVisits), from that span, filtered and then sorted; at any
//     other floor by a pass that tests values.
//   - MaxFindRaise only records (holder, best). The next reader of the
//     active list — ScanList, Keep, Install or Advance,
//     MaxFindExclude, or another raise — applies it in one compaction that
//     drops the holder and every node not above (best, holder) in the
//     max-find order (wire.Above: value, then id), so the raise is
//     applied against the values it was announced over. A MaxFindInit or
//     Reset discards it.
//   - MaxFindExclude takes its node off the active list and adds it to the
//     exclusion list.
//
// A value change never touches the active list: whether an active node is
// still above a sweep's threshold is what Keep decides, per sweep.
// MaxFindInit and MaxFindRaise also set the floor watermark, a (value, id)
// pair every active node exceeds in the max-find order: Init's floor with
// an id no node exceeds, and after a Raise the larger of that and (best,
// holder). Install invalidates it as above; Reset, and an Init at
// math.MinInt64, leave none. While it is known, a resolve of the max-find
// predicate over the active list at a threshold at or below it keeps the
// list itself without testing a node — the case of every sweep of a
// max-find run but a seeded one's first.
//
// A broadcast the fault layer drops never reaches the Shard, so the
// structures stay exactly as stale as the model's nodes would be
// (FuzzFilterMirror, FuzzActiveList). Code outside the Shard reads nodes
// through Node, a copy, and cannot mutate one.
//
// On the read side, node state cannot change while an EXISTENCE sweep
// runs, so a sweep resolves its matchers once (Resolve: Keep over
// ScanList), and the server, which draws each round's sender ranks over
// them, reads the reports at those ranks of the kept list (Senders,
// KeptReport). A Collect is the same round 0 read at every rank, so Resolve
// is the one place a predicate is evaluated and ResolveSize its one price.
// An active step costs its matchers once and its senders, not
// candidates × rounds. Every candidate list comes from ScanList, which
// also counts the candidates (Visited) and obeys the FullScan ablation. A
// Shard is not safe for concurrent use; the live engine hands each one to
// one executor per call.
type Shard struct {
	base int
	rows []row
	own  []filter.Interval // own[i] is row i's own filter
	ids  []int32           // every id in order: the full scan

	idx    *vindex.Index
	vio    *vindex.Groups // group 1 holds the violators, group 0 the rest
	active []int32
	// (floor, floorID) is under every active node's (value, id) in the
	// max-find order, or floor is noFloor.
	floor   int64
	floorID int64

	// byClass groups the ids by class slot; classes[c] is slot c's label
	// and class filter, classOf[t] the slot tag t owns, and gen the
	// generation of the last class filter set (see "Tag classes").
	byClass *vindex.Groups
	classes [wire.NumTags]class
	classOf [wire.NumTags]uint8
	gen     uint32

	cand []int32
	kept []int32 // keptBuf[:k], or the active list itself

	// FullScan makes ScanList return every id, ignoring the routing
	// structures, and makes MaxFindInit and ApplyRule take their passes
	// over the rows. Ablation scaffolding for the index equivalence
	// property tests and BenchmarkViolationSweep; leave false otherwise. It
	// never perturbs outputs, counters, or the server's draws — only the
	// scan cost. Reset clears it.
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

// row is one node's own state: its value, its class slot, the generation
// of its own filter (Shard.own), the one its last unicast assigned or a
// retag that moved it kept, and whether it violates its filter, its group
// in the violator set. The own filters live apart from the rows, since a
// node in a class a rule set later never reads its own, and the passes
// that read values scan rows of 16 bytes.
type row struct {
	value int64
	gen   uint32
	slot  uint8
	vio   bool
}

// class is one class slot's label, the tag its nodes hold, and its class
// filter, which applies to the nodes whose own filter is older than gen.
type class struct {
	tag wire.Tag
	iv  filter.Interval
	gen uint32
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
		rows:    make([]row, n),
		own:     make([]filter.Interval, n),
		ids:     make([]int32, n),
		idx:     vindex.New(base, n),
		vio:     vindex.NewGroups(base, n, 2),
		active:  make([]int32, 0, n),
		byClass: vindex.NewGroups(base, n, int(wire.NumTags)),
		cand:    make([]int32, 0, n),
		keptBuf: make([]int32, n),
		excl:    make([]int32, 0, n),
	}
	for i := range s.ids {
		s.ids[i] = int32(base + i)
	}
	s.reset() // vindex.New and NewGroups return their structures reset
	return s
}

// Len returns the number of nodes in the shard. No program calls it; the
// tests of this package and internal/live do.
func (s *Shard) Len() int { return len(s.rows) }

// IDs returns every id of the shard in ascending order: the scan of a full
// scan. Read-only. No program calls it; the tests of this package and
// internal/live do.
func (s *Shard) IDs() []int32 { return s.ids }

// Node returns the node with absolute id id as it stands: its value, its
// tag and its filter (filterAt). It is a copy; the Shard's mutators are
// the only way to change a node.
func (s *Shard) Node(id int) Node {
	i := id - s.base
	return Node{ID: id, Value: s.rows[i].value, Filter: s.filterAt(i), Tag: s.classes[s.rows[i].slot].tag}
}

// filterAt returns the filter of the node in row i: its class filter if a
// rule set that after the node's own assignment, else its own filter.
func (s *Shard) filterAt(i int) filter.Interval {
	r := &s.rows[i]
	if c := &s.classes[r.slot]; c.gen > r.gen {
		return c.iv
	}
	return s.own[i]
}

// report returns the reply of the node in row i.
func (s *Shard) report(i int) wire.Report {
	v := s.rows[i].value
	return wire.Report{ID: s.base + i, Value: v, Dir: s.filterAt(i).Violation(v)}
}

// Install records the observation v at node id: a batch of one (Stage,
// then Settle). No program calls it; the tests of this package do.
func (s *Shard) Install(id int, v int64) {
	s.Stage(id, v)
	s.Settle()
}

// Stage records the observation v at node id as one observation of a batch,
// which the caller must end with Settle before any other call on the Shard.
// A pending raise is applied first, against the values it was announced
// over.
func (s *Shard) Stage(id int, v int64) {
	if s.raised {
		s.applyRaise()
	}
	s.install(id, v)
}

// Settle ends a batch of Stage calls: the value index regroups the ids the
// batch left unmoved (vindex.Index.Settle), in O(n) if it ran past its
// budget and O(1) otherwise.
func (s *Shard) Settle() { s.idx.Settle() }

// install is Stage with no raise pending.
func (s *Shard) install(id int, v int64) {
	if len(s.active) > 0 && !wire.Above(v, int64(id), s.floor, s.floorID) && s.onList(id) {
		s.floor = noFloor
	}
	i := id - s.base
	s.rows[i].value = v
	// The per-update path: the index is called only when the node's bucket
	// changes, tested inline, and recheck only moves a changed bit.
	if !s.idx.Holds(id, v) {
		s.idx.Stage(id, v)
	}
	s.recheck(i, s.filterAt(i))
}

// recheck sets the violator bit of the node in row i to whether its value
// lies outside iv, its filter, and moves the node into the violator set's
// group the bit names when the bit changes.
func (s *Shard) recheck(i int, iv filter.Interval) {
	if r := &s.rows[i]; iv.Contains(r.value) == r.vio {
		r.vio = !r.vio
		s.vio.Move(s.base+i, b2i(!r.vio), b2i(r.vio))
	}
}

// Advance installs values[id] at node id for every id of ids, in that
// order, or at every node of the shard when ids is nil; values is indexed
// by absolute id. Each value passes CheckValue before it is installed. The
// installs are one batch of the value index, settled before Advance
// returns, so they cost it O(min(Σ bucket distance, n)): a dense load from
// value 0 is one regroup, a quiet step the moves it makes. It returns the
// largest value installed, 0 if none was.
func (s *Shard) Advance(values []int64, ids []int) (top int64) {
	if s.raised {
		s.applyRaise()
	}
	count := len(ids)
	if ids == nil {
		count = len(s.rows)
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
	s.idx.Settle()
	return top
}

// ApplyRule applies a broadcast filter rule: every node retags itself by
// it and derives its filter from its new tag, at the cost of the nodes the
// retag moves and of the set classes' walks ("Tag classes").
func (s *Shard) ApplyRule(r *wire.FilterRule) {
	p := s.plan(r)
	s.retag(r, &p)
	s.setClasses(r, &p)
}

// rulePlan is what a rule does to the class slots, read before it is
// applied: each slot's tag after the retag, the slot each tag's class
// keeps, the nodes the merges move, and the set phase's cost.
type rulePlan struct {
	to     [wire.NumTags]wire.Tag // slot → its tag after the retag
	keeper [wire.NumTags]int8     // tag → the slot its class keeps, -1 for none
	moved  int                    // nodes the retag moves
	set    bool                   // whether the rule sets any tag
	walk   int                    // node visits of the set classes' walks
	pass   bool                   // whether the set phase takes the row pass
}

// plan returns r's plan over the slots as they stand. Its set phase walks
// each set class's cheaper list while the walks together visit at most two
// thirds of the rows, and takes one read-only pass over them otherwise
// (and under FullScan). A walk visits rows out of id order, the pass in
// order but all of them, and the cutoff sits where BenchmarkRulePaths (this
// package; 2-core x86-64 VM) has the two cross. Its epoch-opening rule,
// with the members of the rest class in the order a long run leaves them,
// took per application, walk against pass:
//
//	new violators          n = 2^10          n = 2^16
//	split, 1/64 (walk 1/64)   1.9 /  5.1 µs     48 /  326 µs
//	split, 1/2  (walk 1/2)   11.4 / 16.3 µs    691 / 1461 µs
//	split, all  (walk all)   28.4 / 28.8 µs   3220 / 1328 µs
//	bucket, 1/64 (walk all)   5.6 /  5.5 µs    401 /  254 µs
//	bucket, all  (walk all)  35.7 / 23.5 µs   3449 / 1055 µs
//
// "split" is embed-churn's value shape, where the value index's span above
// the rest filter holds only the new violators; "bucket" puts every value
// in one bucket, where the span is the whole shard and the walk is the
// rest class.
func (s *Shard) plan(r *wire.FilterRule) (p rulePlan) {
	var size [wire.NumTags]int // tag → its class's size after the retag
	for t := range p.keeper {
		p.keeper[t] = -1
	}
	for c := range s.classes {
		t := s.classes[c].tag
		if r.RetagSet[t] {
			t = r.Retag[t]
		}
		p.to[c] = t
		size[t] += s.byClass.Len(c)
		if k := p.keeper[t]; k < 0 || s.byClass.Len(c) > s.byClass.Len(int(k)) {
			p.keeper[t] = int8(c)
		}
	}
	for t, k := range p.keeper {
		if k >= 0 {
			p.moved += size[t] - s.byClass.Len(int(k))
		}
		if r.Set[t] {
			p.set = true
			p.walk += min(size[t], s.spanOutside(r.ByTag[t]))
		}
	}
	p.pass = p.set && (s.FullScan || 3*p.walk > 2*len(s.rows))
	return p
}

// RuleVisits returns the node visits ApplyRule(r) costs: the nodes its
// retag moves and, when it sets a tag, the violators it rechecks and the
// set classes' walks, or every row if it takes the pass over them. The
// live engine prices a rule with it before deciding who runs the call.
func (s *Shard) RuleVisits(r *wire.FilterRule) int {
	p := s.plan(r)
	visits := p.moved
	switch {
	case p.pass:
		visits += s.vio.Len(1) + len(s.rows)
	case p.set:
		visits += s.vio.Len(1) + p.walk
	}
	return visits
}

// retag is ApplyRule's retag phase: the nodes of every slot that is not
// its tag's keeper move into the keeper, each taking its filter along as
// its own unless the rule sets its new tag, and the slots are relabelled —
// keepers with their tags, the emptied slots with the tags no slot maps to.
func (s *Shard) retag(r *wire.FilterRule, p *rulePlan) {
	for c := range s.classes {
		k := int(p.keeper[p.to[c]])
		if k == c {
			continue
		}
		keep := !r.Set[p.to[c]]
		for m := s.byClass.Members(c, c); len(m) > 0; m = s.byClass.Members(c, c) {
			i := int(m[len(m)-1]) - s.base
			if keep {
				s.own[i], s.rows[i].gen = s.filterAt(i), s.gen
			}
			s.move(i, k)
		}
	}
	free := 0 // the next tag no slot maps to
	for c := range s.classes {
		t := p.to[c]
		if int(p.keeper[t]) != c {
			for p.keeper[free] >= 0 {
				free++
			}
			t = wire.Tag(free)
			free++
		}
		s.classes[c].tag, s.classOf[t] = t, uint8(c)
	}
}

// setClasses is ApplyRule's set phase: every class whose tag the rule sets
// takes the rule's filter under one new generation, its old violators are
// rechecked, and its new ones are found by its walk or by the row pass.
func (s *Shard) setClasses(r *wire.FilterRule, p *rulePlan) {
	if !p.set {
		return
	}
	var set [wire.NumTags]bool // slot → whether the rule sets its tag
	gen := s.nextGen()
	for t, ok := range r.Set {
		if ok {
			c := s.classOf[t]
			set[c] = true
			s.classes[c].iv, s.classes[c].gen = r.ByTag[t], gen
		}
	}
	// A violator the recheck clears swaps with the group's first member,
	// which this forward walk has passed, so it visits each violator once.
	for _, id := range s.vio.Members(1, 1) {
		i := int(id) - s.base
		if c := s.rows[i].slot; set[c] {
			s.recheck(i, s.classes[c].iv)
		}
	}
	if p.pass {
		for i := range s.rows {
			if c := s.rows[i].slot; set[c] {
				s.recheck(i, s.classes[c].iv)
			}
		}
		return
	}
	for c := range set {
		if !set[c] {
			continue
		}
		iv := s.classes[c].iv
		if s.byClass.Len(c) <= s.spanOutside(iv) {
			s.addViolators(s.byClass.Members(c, c), c, iv)
			continue
		}
		if iv.Lo > 0 {
			s.addViolators(s.idx.Span(0, iv.Lo-1), c, iv)
		}
		if iv.Hi < eps.MaxValue {
			s.addViolators(s.idx.Span(iv.Hi+1, eps.MaxValue), c, iv)
		}
	}
}

// spanOutside returns how many ids the value index spans outside iv hold:
// a superset of the nodes a class filter iv makes violators.
func (s *Shard) spanOutside(iv filter.Interval) int {
	n := 0
	if iv.Lo > 0 {
		n += len(s.idx.Span(0, iv.Lo-1))
	}
	if iv.Hi < eps.MaxValue {
		n += len(s.idx.Span(iv.Hi+1, eps.MaxValue))
	}
	return n
}

// addViolators rechecks the nodes of ids in slot c against its class
// filter iv, adding those whose value lies outside it to the violator set.
func (s *Shard) addViolators(ids []int32, c int, iv filter.Interval) {
	for _, id := range ids {
		if i := int(id) - s.base; int(s.rows[i].slot) == c {
			s.recheck(i, iv)
		}
	}
}

// move takes the node in row i into class slot c.
func (s *Shard) move(i, c int) {
	s.byClass.Move(s.base+i, int(s.rows[i].slot), c)
	s.rows[i].slot = uint8(c)
}

// nextGen returns a new generation for a class filter. Before the counter
// would wrap, every node's filter is folded into its own and every
// generation restarts at 0, which changes no node's filter.
func (s *Shard) nextGen() uint32 {
	if s.gen == math.MaxUint32 {
		for i := range s.rows {
			s.own[i], s.rows[i].gen = s.filterAt(i), 0
		}
		for c := range s.classes {
			s.classes[c].gen = 0
		}
		s.gen = 0
	}
	s.gen++
	return s.gen
}

// SetFilter applies a unicast filter assignment to node id.
func (s *Shard) SetFilter(id int, iv filter.Interval) {
	i := id - s.base
	s.own[i], s.rows[i].gen = iv, s.gen
	s.recheck(i, iv)
}

// SetTagFilter applies a unicast tag and filter assignment to node id.
func (s *Shard) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	s.move(id-s.base, int(s.classOf[t]))
	s.SetFilter(id, iv)
}

// MaxFindInit applies the broadcast: with reset the exclusions are
// cleared, a pending raise is discarded, and the active list becomes every
// node not excluded whose value exceeds floor. Below 0 the floor is under
// every value, so the list is the ids minus the exclusions, copied segment
// by segment. At a floor the value index routes (InitVisits), the list is
// built from the index span above it: the span is filtered by value and by
// exclusion, and only the survivors are sorted. Any other floor takes one
// pass that tests values. Both build the same list, id for id.
func (s *Shard) MaxFindInit(floor int64, reset bool) {
	if reset {
		s.excl = s.excl[:0]
	}
	s.raised = false
	s.floor, s.floorID = floor, math.MaxInt64
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
	if span, ok := s.initSpan(floor); ok {
		s.active = s.initRouted(span, floor)
	} else {
		s.active = s.initPass(floor)
	}
}

// initRouted returns the active list of an Init at floor ≥ 0 built from
// span: the span's nodes not excluded whose value exceeds floor, sorted.
func (s *Shard) initRouted(span []int32, floor int64) []int32 {
	rows, excl, base, active := s.rows, s.excl, s.base, s.active[:0]
	for _, id := range span {
		if rows[int(id)-base].value > floor {
			if _, out := slices.BinarySearch(excl, id); !out {
				active = append(active, id)
			}
		}
	}
	slices.Sort(active)
	return active
}

// initPass returns the active list of an Init at floor ≥ 0 built by one
// pass over the rows.
func (s *Shard) initPass(floor int64) []int32 {
	rows, excl, ids := s.rows, s.excl, s.ids
	active, k := s.active[:len(rows)], 0
	for i := range rows {
		if len(excl) > 0 && excl[0] == ids[i] {
			excl = excl[1:]
			continue
		}
		active[k] = ids[i]
		k += b2i(rows[i].value > floor)
	}
	return active[:k]
}

// initSpan returns the index span a MaxFindInit at floor ≥ 0 builds its
// active list from, and whether it does: when the span holds at most an
// eighth of the shard, and FullScan is off. The span's nodes are visited
// out of id order and its survivors sorted, so the routed build costs more
// per node than the pass over the rows, and the cutoff sits where the two
// cross (BenchmarkInitPaths, 2-core x86-64 VM): at a sixteenth of the
// shard the routed build takes about half the pass's time at n = 2^10 and
// 2^18; at an eighth it is 0.8 of it at 2^10 and 1.0 to 1.1 at 2^18; at a
// quarter it is 1.5 of it at both.
func (s *Shard) initSpan(floor int64) ([]int32, bool) {
	if s.FullScan {
		return nil, false
	}
	span := s.idx.Span(floor+1, eps.MaxValue)
	return span, 8*len(span) <= len(s.rows)
}

// InitVisits returns the node visits a MaxFindInit at floor costs and
// whether it is routed through the value index: below 0 an eighth of a
// visit per id, since the Init copies ids and tests no node; the span's
// length at a floor the index routes; every node otherwise. The live
// engine prices the Init with it before deciding who runs the call.
func (s *Shard) InitVisits(floor int64) (visits int, routed bool) {
	if floor < 0 {
		return len(s.rows) / 8, false
	}
	if span, ok := s.initSpan(floor); ok {
		return len(span), true
	}
	return len(s.rows), false
}

// MaxFindRaise records the broadcast announcing a new best (holder, value):
// the holder and every active node not above (value, holder) in the
// max-find order drop out when the next reader of the active list applies
// it (applyRaise). A raise still pending is applied first, and the floor
// watermark rises to (best, holder) at once, since no reader can see the
// list before the raise is applied.
// TestRaiseMatchesNodeHandler holds the pair equal to the per-node
// handler applied to every row.
func (s *Shard) MaxFindRaise(holder int, best int64) {
	if s.raised {
		s.applyRaise()
	}
	s.raised, s.raiseHolder, s.raiseBest = true, holder, best
	if wire.Above(best, int64(holder), s.floor, s.floorID) {
		s.floor, s.floorID = best, int64(holder)
	}
}

// applyRaise applies the pending raise in one in-place compaction of the
// active list (keepAbove): the list keeps the nodes above (best, holder)
// in the max-find order. The holder reported best as its value, so the
// pass drops it too unless its value has since moved above best; then it
// is taken off the list on its own.
func (s *Shard) applyRaise() {
	s.raised = false
	h, best := s.raiseHolder, s.raiseBest
	s.active = s.keepAbove(s.active, s.active, best, int64(h))
	if uint(h-s.base) < uint(len(s.rows)) && s.rows[h-s.base].value > best {
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
	active = s.onList(id) && !(s.raised && (id == s.raiseHolder ||
		!wire.Above(s.rows[id-s.base].value, int64(id), s.raiseBest, int64(s.raiseHolder))))
	_, excluded = slices.BinarySearch(s.excl, int32(id))
	return active, excluded
}

// onList reports whether id is on the active list.
func (s *Shard) onList(id int) bool {
	_, ok := slices.BinarySearch(s.active, int32(id))
	return ok
}

// Reset returns every node to the state New(id) constructs — value 0, the
// all-admitting filter, no tag — and the structures to NewShard's, reusing
// every array.
func (s *Shard) Reset() {
	s.byClass.Reset()
	s.idx.Reset()
	s.vio.Reset()
	s.reset()
}

// reset is Reset but for the three vindex structures, which NewShard takes
// reset from their constructors.
func (s *Shard) reset() {
	clear(s.rows)
	for i := range s.own {
		s.own[i] = filter.All
	}
	for t := range s.classes {
		s.classes[t] = class{tag: wire.Tag(t), iv: filter.All}
		s.classOf[t] = uint8(t)
	}
	s.gen = 0
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
		s.cand = append(s.cand[:0], s.vio.Members(1, 1)...)
		slices.Sort(s.cand)
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
// returned since construction or the last Reset: per Resolve, the size of
// its scan list, once, since a sweep resolves its matchers in its first
// round and its rounds visit no further candidate, and a Collect is a
// sweep's round 0. A max-find
// scan the floor watermark keeps whole counts in full, though no node is
// tested. Work accounting for measuring the routing's selectivity
// (experiment E12), not message cost.
func (s *Shard) Visited() int64 { return s.visited }

// ResolveSize returns the node visits Resolve(p) costs, read from the
// structures' lengths without building a list: len(ScanList(p)), except
// for the max-find predicate, where it is the length of the active list
// before ScanList applies a pending raise, whose compaction visits every id
// of it, and 0 when no raise is pending and the floor watermark keeps the
// list whole, since then no node is tested. The live engine prices a
// Resolve, and so a Collect, with it before deciding who runs the call.
func (s *Shard) ResolveSize(p wire.Pred) int {
	switch {
	case s.FullScan || !vindex.Routable(p):
		return len(s.rows)
	case p.Kind == wire.PredAboveActive:
		if !s.raised && s.keepsWhole(p) {
			return 0
		}
		return len(s.active)
	case p.Kind == wire.PredViolating:
		return s.vio.Len(1)
	}
	lo, hi, _ := p.Bounds()
	return len(s.idx.Span(lo, hi))
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
	rows, base := s.rows, s.base
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
				k += b2i(len(active) > 0 && active[0] == id && wire.Above(rows[int(id)-base].value, int64(id), p.X, p.Y))
			}
			break
		}
		if s.keepsWhole(p) {
			s.kept = scan
			return scan
		}
		s.kept = s.keepAbove(kept[:0], scan, p.X, p.Y)
		return s.kept
	case wire.PredViolating:
		for _, id := range scan {
			i := int(id) - base
			kept[k] = id
			k += b2i(!s.filterAt(i).Contains(rows[i].value))
		}
	case wire.PredInRange:
		for _, id := range scan {
			v := rows[int(id)-base].value
			kept[k] = id
			k += b2i(v >= p.X && v <= p.Y)
		}
	case wire.PredHasTag:
		c := s.classOf[p.Tag]
		for _, id := range scan {
			kept[k] = id
			k += b2i(rows[int(id)-base].slot == c)
		}
	}
	s.kept = kept[:k]
	return s.kept
}

// keepAbove stores the ids of scan, which ascends, into dst's array and
// keeps those whose node is above (x, y) in the max-find order, in scan
// order; dst may be scan itself. The ids up to y must exceed x, the ids
// past it only reach it, so each side is one loop of one comparison.
func (s *Shard) keepAbove(dst, scan []int32, x, y int64) []int32 {
	rows, base := s.rows, s.base
	dst = dst[:len(scan)]
	split := len(scan)
	if y < math.MaxInt32 {
		split, _ = slices.BinarySearch(scan, int32(max(y, -1)+1))
	}
	k := 0
	for _, id := range scan[:split] {
		dst[k] = id
		k += b2i(rows[int(id)-base].value > x)
	}
	for _, id := range scan[split:] {
		dst[k] = id
		k += b2i(rows[int(id)-base].value >= x)
	}
	return dst[:k]
}

// keepsWhole reports whether the floor watermark covers the max-find
// predicate p, so that every active node matches it.
func (s *Shard) keepsWhole(p wire.Pred) bool {
	return s.floor != noFloor && !wire.Above(p.X, p.Y, s.floor, s.floorID)
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
func (s *Shard) KeptReport(i int) wire.Report { return s.report(int(s.kept[i]) - s.base) }

// Senders implements cluster.Nodes: it appends to dst the reports of the
// kept matchers at ranks, which ascend, so dst gets them in id order.
func (s *Shard) Senders(dst []wire.Report, ranks []int32) []wire.Report {
	for _, r := range ranks {
		dst = append(dst, s.KeptReport(int(r)))
	}
	return dst
}

// Probe returns node id's report.
func (s *Shard) Probe(id int) wire.Report { return s.report(id - s.base) }

// AppendFilters appends the filter of every node to dst in id order.
func (s *Shard) AppendFilters(dst []filter.Interval) []filter.Interval {
	for i := range s.rows {
		dst = append(dst, s.filterAt(i))
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
