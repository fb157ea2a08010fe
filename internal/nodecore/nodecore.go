// Package nodecore implements the node-local state and behaviour shared by
// the deterministic lockstep engine and the concurrent goroutine engine:
// the node side of cluster.Server, which both engines are.
//
// A node owns: its current stream value, its assigned filter, a protocol tag
// (V1/V2/S1-style set membership, updated by server messages), and a
// max-find activation flag. All server-visible behaviour is driven through
// Apply* message handlers and the EXISTENCE send schedule, so the two
// engines cannot diverge in node logic.
//
// A node is a plain value with its RNG stream inside it, built for reuse:
// Reset rewinds it in place to the state New constructs for a given root
// source, so engine Reset (trial reuse in the experiment harness)
// allocates nothing on the node side. Handlers never allocate — the
// per-step zero-allocation budget of both engines rests on that.
//
// Inside an engine the nodes are the rows of a Shard, one []Node
// allocated once, which owns them together with the routing structures
// derived from them and is the only code that changes a node; its doc
// comment states that node-mutation contract.
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
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// Node is the state of one distributed node.
type Node struct {
	ID     int
	Value  int64
	Filter filter.Interval
	Tag    wire.Tag

	// MFActive marks participation in the current max-find run.
	MFActive bool
	// MFExcluded marks a node already returned by a previous max-find run
	// of the same top-m computation; it sits out until a resetting init.
	MFExcluded bool

	// RNG drives the node's EXISTENCE coin flips.
	RNG rngx.Source
}

// ServerRNG is the Child id of the server-side randomness stream
// (Cluster.Rand, which DetectViolation picks a sender with). cluster.Server
// derives it from the root the nodes derive from, so equal seeds give
// equal server coin flips on either engine. Node id's stream is
// root.Child(id), so the server stream stays disjoint from every node's as
// long as n ≤ ServerRNG.
const ServerRNG = 0xC0FFEE

// New returns a node with the all-admitting filter and its own child RNG,
// seed.Child(id).
func New(id int, seed *rngx.Source) *Node {
	nd := &Node{ID: id}
	nd.Reset(seed)
	return nd
}

// Reset returns the node to the state New(nd.ID, root) would construct:
// value 0, the all-admitting filter, no tag, no max-find participation, and
// the RNG rewound to the child stream New would have derived from root.
func (nd *Node) Reset(root *rngx.Source) {
	nd.Value = 0
	nd.Filter = filter.All
	nd.Tag = wire.TagNone
	nd.MFActive = false
	nd.MFExcluded = false
	nd.RNG.Reseed(root.ChildSeed(uint64(nd.ID)))
}

// Observe sets the node's current value (the next stream element).
func (nd *Node) Observe(v int64) { nd.Value = v }

// Violation classifies the node's value against its filter.
func (nd *Node) Violation() filter.Direction { return nd.Filter.Violation(nd.Value) }

// Report is the node → server message every reply carries: the node's id,
// value and violation direction.
func (nd *Node) Report() wire.Report {
	return wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()}
}

// Match evaluates a broadcastable predicate against node-local state.
func (nd *Node) Match(p wire.Pred) bool {
	switch p.Kind {
	case wire.PredViolating:
		return nd.Violation() != filter.DirNone
	case wire.PredAboveActive:
		return nd.MFActive && nd.Value > p.X
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
// define keep their current filter.
func (nd *Node) ApplyFilterRule(r *wire.FilterRule) {
	nd.Tag, nd.Filter = r.Apply(nd.Tag, nd.Filter)
}

// SetFilter applies a unicast filter assignment.
func (nd *Node) SetFilter(iv filter.Interval) { nd.Filter = iv }

// SetTag applies a unicast tag change.
func (nd *Node) SetTag(t wire.Tag) { nd.Tag = t }

// MaxFindInit (broadcast) re-activates the node for a fresh max-find run
// when its value exceeds the announced floor; nodes at or below deactivate.
// With reset, prior exclusions (found maxima) are forgotten, starting a new
// top-m computation.
func (nd *Node) MaxFindInit(floor int64, reset bool) {
	if reset {
		nd.MFExcluded = false
	}
	nd.MFActive = !nd.MFExcluded && nd.Value > floor
}

// MaxFindRaise (broadcast) announces a new best (holder, value); the holder
// and every node not exceeding the value drop out. Shard.MaxFindRaise
// applies it to its active nodes in one batch pass, held equal to this
// handler by TestRaiseMatchesNodeHandler.
func (nd *Node) MaxFindRaise(holder int, best int64) {
	if nd.ID == holder || nd.Value <= best {
		nd.MFActive = false
	}
}

// MaxFindExclude (broadcast) permanently benches the named node until the
// next resetting init; used to find the (j+1)-st largest after the j-th.
func (nd *Node) MaxFindExclude(id int) {
	if nd.ID == id {
		nd.MFExcluded = true
		nd.MFActive = false
	}
}

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
// (2^(γ-1) < n), so rngx.Source.Bool draws a coin exactly in the rounds
// before the last. The engines compute it once per round.
func ExistenceProb(r, n int) float64 {
	if r >= ExistenceRounds(n) {
		return 1
	}
	return float64(uint64(1)<<uint(r)) / float64(n)
}

// ExistenceSend decides whether a node holding a 1 sends in round r of the
// EXISTENCE protocol over n nodes: independently with probability
// ExistenceProb(r, n), and with certainty — no coin drawn — in the final
// round.
func (nd *Node) ExistenceSend(r, n int) bool {
	return nd.RNG.Bool(ExistenceProb(r, n))
}
