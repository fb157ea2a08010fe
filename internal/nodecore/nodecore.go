// Package nodecore implements the node-local state and behaviour shared by
// the deterministic lockstep engine and the concurrent goroutine engine:
// the node side of cluster.Server, which both engines are.
//
// A node has a current stream value, a protocol tag (V1/V2/S1-style set
// membership) and a filter, both set by server messages: a unicast assigns
// one node's, a broadcast filter rule retags every node and derives its
// filter from its tag. Inside an engine a node is a row of a Shard, which
// keeps the node's value and its own filter and derives its tag and filter
// from its tag class (the Shard's doc comment says how), so a rule costs
// the nodes it changes and not n. All server-visible behaviour is driven
// through the Shard's handlers, so the two engines cannot diverge in node
// logic. Which nodes take part in a max-find run is not a node's state but
// its Shard's: the active list, the only record of it, and the exclusion
// list of the current top-m computation (Shard.MaxFind reads both for one
// node). A max-find raise is recorded and applied by the next read of the
// active list, in one pass over it, so no max-find broadcast writes a row.
// A node draws no randomness: which matchers of an EXISTENCE round send is
// drawn by the server, as ranks over the round's id-ordered matchers
// (Gaps), from its own stream.
//
// Node is a node's state as one plain value: what Shard.Node returns, and,
// with its own handlers (Observe, SetFilter, SetTag, ApplyFilterRule), the
// eager per-node reference the tests replay a run on to check the Shard's
// derived tags and filters. Shard handlers never allocate — the per-step
// zero-allocation budget of both engines rests on that — and engine Reset
// (trial reuse in the experiment harness) allocates nothing on the node
// side.
//
// Inside an engine the nodes are the rows of a Shard, one slice allocated
// once, which owns them together with the routing structures derived from
// them and is the only code that changes a node; its doc comment states
// that node-mutation contract.
// Outside the engine two other views of the values exist, each with its
// own job and neither consulted by a protocol: topk.Monitor.vals, the
// facade's referee copy of what was pushed (Check validates the output
// against it, and it is the vector handed to AdvanceDirty), and
// faults.Cluster.lastVals, the view a probe is answered from when the node
// or the probe's messages are down.
package nodecore

import (
	"math/bits"

	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// Node is the state of one distributed node: its id, value, filter and tag.
type Node struct {
	ID     int
	Value  int64
	Filter filter.Interval
	Tag    wire.Tag
}

// ServerRNG is the Child id of the server-side randomness stream
// (Cluster.Rand), the one stream of an engine: cluster.Server draws every
// sweep's sender ranks (Gaps) and DetectViolation's pick among the senders
// from it, so equal seeds give equal draws on either engine and at every
// shard count.
const ServerRNG = 0xC0FFEE

// New returns node id with the all-admitting filter. No program calls it
// (a Shard resets its rows in place); the tests of this package,
// internal/wire, internal/cluster and internal/lockstep do.
func New(id int) *Node {
	nd := &Node{ID: id}
	nd.Reset()
	return nd
}

// Reset returns the node to the state New(nd.ID) constructs: value 0, the
// all-admitting filter, no tag.
func (nd *Node) Reset() {
	nd.Value = 0
	nd.Filter = filter.All
	nd.Tag = wire.TagNone
}

// Observe sets the node's current value (the next stream element).
func (nd *Node) Observe(v int64) { nd.Value = v }

// Violation classifies the node's value against its filter.
func (nd Node) Violation() filter.Direction { return nd.Filter.Violation(nd.Value) }

// Report is the node → server message every reply carries: the node's id,
// value and violation direction.
func (nd Node) Report() wire.Report {
	return wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()}
}

// Match evaluates a broadcastable predicate against node-local state. For
// the max-find predicate that is the (value, id) test alone: whether the
// node is active is its Shard's to say (Shard.MaxFind).
func (nd Node) Match(p wire.Pred) bool {
	switch p.Kind {
	case wire.PredViolating:
		return nd.Violation() != filter.DirNone
	case wire.PredAboveActive:
		return wire.Above(nd.Value, int64(nd.ID), p.X, p.Y)
	case wire.PredInRange:
		return nd.Value >= p.X && nd.Value <= p.Y
	case wire.PredHasTag:
		return nd.Tag == p.Tag
	default:
		return false
	}
}

// ApplyFilterRule first retags the node per the rule, then derives its
// filter from its (possibly new) tag. Nodes whose tag the rule does not
// define keep their current filter. It is the eager per-node rule the
// Shard's ApplyRule must agree with; no program calls it.
func (nd *Node) ApplyFilterRule(r *wire.FilterRule) {
	nd.Tag, nd.Filter = r.Apply(nd.Tag, nd.Filter)
}

// SetFilter applies a unicast filter assignment.
func (nd *Node) SetFilter(iv filter.Interval) { nd.Filter = iv }

// SetTag applies a unicast tag change.
func (nd *Node) SetTag(t wire.Tag) { nd.Tag = t }

// ExistenceRounds returns γ = ⌈log₂ n⌉, the number of probabilistic rounds
// of the EXISTENCE protocol (Lemma 3.1). Round γ sends with probability 1.
func ExistenceRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ExistenceProb returns p_r = 2^r / n, the probability with which a node
// holding a 1 sends in round r of the EXISTENCE protocol over n nodes, and
// 1 for the final round r ≥ γ. It is below 1 in every earlier round
// (2^(γ-1) < n). No program calls it (Gaps builds its tables from
// 1 − p_r = (n − 2^r)/n directly); it is the law the tests of this package,
// internal/cluster and internal/rngx hold the sampler to.
func ExistenceProb(r, n int) float64 {
	if r >= ExistenceRounds(n) {
		return 1
	}
	return float64(uint64(1)<<uint(r)) / float64(n)
}
