package vindex

import (
	"slices"

	"topkmon/internal/filter"
)

// Mirror is the server-side violator set that makes the violation predicate
// routable: the server assigns every filter (SetFilter, SetTagFilter,
// BroadcastRule), so the engine owning the nodes can re-evaluate a node's
// (value, filter) pair whenever either changes and maintain the exact
// violator set incrementally — the (value-bucket ∩ assigned-interval) set
// operation evaluated not per query but per update, which makes every
// violation sweep of a quiet step O(1) instead of an O(n) full scan of
// ~136µs (n=4096) to ~674µs (n=16384) per step.
//
// The mirror holds no values and no filters of its own: nodecore.Shard is
// the one owner of both inside an engine (a node's filter is its tag
// class's or its own, as the Shard's doc comment says), and Set takes the
// pair from the Shard at the call site. What it mirrors is one derived bit
// per node — "value outside filter" — plus the compact list of the ids
// whose bit is set. Its owner is nodecore.Shard, which calls Set in the
// same mutator that changes the node's value or filter (see the
// node-mutation contract there), so layers above the engine cannot desync
// it (property-tested by FuzzFilterMirror and the chaos routing suites).
//
// # Exactness
//
// Unlike the value buckets, the mirror is not a coarsening: Violators
// returns exactly the ids whose value lies outside their filter. Engines
// still evaluate Match per candidate — the byte-equality proof obligation
// treats the scan list as a superset like any other routed scan.
type Mirror struct {
	base int

	// vio holds the violating ids in arbitrary order; pos[id-base] is the
	// id's position in vio, or -1. Swap-remove keeps both O(1) per update.
	vio []int32
	pos []int32
}

// NewMirror returns a mirror over the ids [base, base+n) in the engines'
// construction state: every value 0, every filter all-admitting, no
// violators.
func NewMirror(base, n int) *Mirror {
	m := &Mirror{
		base: base,
		vio:  make([]int32, 0, n),
		pos:  make([]int32, n),
	}
	m.Reset()
	return m
}

// Reset returns the mirror to the engines' post-Reset node state (value 0,
// the all-admitting filter): no violators. It reuses the arrays and
// allocates nothing.
func (m *Mirror) Reset() {
	for i := range m.pos {
		m.pos[i] = -1
	}
	m.vio = m.vio[:0]
}

// Set records that node id now holds value v under filter iv, moving it in
// or out of the violator set to match; both directions are O(1).
func (m *Mirror) Set(id int, v int64, iv filter.Interval) {
	i := id - m.base
	want := !iv.Contains(v)
	have := m.pos[i] >= 0
	switch {
	case want && !have:
		m.pos[i] = int32(len(m.vio))
		m.vio = append(m.vio, int32(id))
	case !want && have:
		p := m.pos[i]
		last := m.vio[len(m.vio)-1]
		m.vio[p] = last
		m.pos[last-int32(m.base)] = p
		m.vio = m.vio[:len(m.vio)-1]
		m.pos[i] = -1
	}
}

// Violating reports whether node id is in the violator set.
func (m *Mirror) Violating(id int) bool { return m.pos[id-m.base] >= 0 }

// Violators returns the violating ids in no particular order: a view of
// the set, which callers must not modify. A Set that removes an id moves
// the last id of the view into its place, so a walk from the end may Set
// the ids it visits as long as none is added.
func (m *Mirror) Violators() []int32 { return m.vio }

// NumViolating returns the current violator count.
func (m *Mirror) NumViolating() int { return len(m.vio) }

// AppendViolators appends the violating ids to dst in ascending id order,
// reusing dst's capacity — the form nodecore.Shard.ScanList needs to
// preserve the engines' id-ordered report contract. Sorting costs O(σ log σ) in the
// violator count σ; a quiet step (σ = 0) appends nothing.
func (m *Mirror) AppendViolators(dst []int32) []int32 {
	n := len(dst)
	dst = append(dst, m.vio...)
	slices.Sort(dst[n:])
	return dst
}
