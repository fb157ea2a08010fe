// Package wire defines the message vocabulary exchanged between the server
// and the nodes, the broadcastable predicates and filter rules, and bit-size
// accounting used to check the model's message-size constraint (messages may
// carry at most O(log n + log Δ) bits).
//
// Everything here is a pure value: Report, Pred, and FilterRule contain no
// slices or maps, so engines may copy them freely into reused batch buffers
// and protocols may keep one FilterRule and mutate it between broadcasts
// (the engines guarantee a broadcast rule is applied — or copied — before
// BroadcastRule returns; see the contract on cluster.Cluster). This
// copy-by-value property is what the engines' zero-allocation steady state
// is built on.
package wire

import (
	"fmt"
	"math"
	"math/bits"

	"topkmon/internal/filter"
)

// Kind enumerates message types.
type Kind uint8

const (
	// KindExistenceReport is a node → server message sent during an
	// EXISTENCE sweep round; carries the node id, its value, and (for
	// violation sweeps) the violation direction.
	KindExistenceReport Kind = iota
	// KindHalt is the server broadcast terminating an EXISTENCE sweep.
	KindHalt
	// KindProbeRequest asks one node for its value.
	KindProbeRequest
	// KindProbeReply answers a probe with (id, value); the seed's node
	// acknowledges a seeded MaxFindInit with one.
	KindProbeReply
	// KindCollect is a broadcast asking all nodes matching a predicate to
	// report their values.
	KindCollect
	// KindCollectReply is a node's answer to a collect.
	KindCollectReply
	// KindSetFilter assigns one node its filter (unicast).
	KindSetFilter
	// KindFilterRule broadcasts a rule from which every node derives its
	// own filter from its locally-known tags.
	KindFilterRule
	// KindTag changes one node's tag (unicast).
	KindTag
	// KindMaxFindInit resets max-find participation above a floor value
	// (broadcast). A seeded Init carries the seed's (value, id): the nodes
	// take the floor from its value and the first sweep's threshold from
	// the pair, and the seed's node acknowledges it with a probe reply.
	KindMaxFindInit
	// KindMaxFindRaise broadcasts a new best (value, holder) pair;
	// nodes at or below it in (value, id) order deactivate.
	KindMaxFindRaise
	// KindMaxFindExclude broadcasts the id of a found maximum so that it
	// sits out subsequent max-find runs (the paper's identifier-based
	// tie-breaking / exclusion when computing the k+1 largest values).
	KindMaxFindExclude
	numKinds
)

var kindNames = [numKinds]string{
	"existence-report", "halt", "probe-request", "probe-reply",
	"collect", "collect-reply", "set-filter", "filter-rule", "tag",
	"maxfind-init", "maxfind-raise", "maxfind-exclude",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumKinds is the number of distinct message kinds.
const NumKinds = int(numKinds)

// Tag labels a node with its protocol-set membership. Tags are node-local
// state: a broadcast filter rule maps each tag to an interval, so one
// broadcast re-filters the whole cluster.
type Tag uint8

// Tags used by the protocols. Their meaning follows Section 5:
// V1 must be in any optimal output, V3 cannot be, V2 is undecided; S1/S2
// mark V2 nodes observed above u_r / below ℓ_r respectively.
const (
	TagNone Tag = iota
	TagOut      // member of the current output F(t) (used by two-filter protocols)
	TagRest     // non-member
	TagV1
	TagV2 // V2 \ (S1 ∪ S2)
	TagV2S1
	TagV2S2
	TagV2S12 // V2 ∩ S1 ∩ S2 (filter assigned only inside SUBPROTOCOL)
	TagV3
	NumTags
)

var tagNames = [NumTags]string{
	"none", "out", "rest", "V1", "V2", "V2∩S1", "V2∩S2", "V2∩S1∩S2", "V3",
}

// String implements fmt.Stringer.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// PredKind enumerates broadcastable node predicates: each is decidable from
// node-local state plus the O(1) parameters carried by the predicate, so
// announcing one costs a single broadcast.
type PredKind uint8

const (
	// PredViolating matches nodes outside their filter. The scheduled
	// per-step violation sweep uses it implicitly (no broadcast needed).
	PredViolating PredKind = iota
	// PredAboveActive matches max-find-active nodes whose (value, id)
	// exceeds (X, Y) in lexicographic order: value > X, or value = X and
	// id > Y. The max-find order is this order, so ties break by id.
	PredAboveActive
	// PredInRange matches nodes with value in [X, Y].
	PredInRange
	// PredHasTag matches nodes whose tag equals Tag.
	PredHasTag
)

// Pred is a broadcastable predicate over node-local state.
type Pred struct {
	Kind PredKind
	X    int64
	Y    int64
	Tag  Tag
}

// Bounds returns the value interval a matching node's value must lie in —
// the contract the engines' value-bucket routing is built on (see
// internal/vindex): when ok is true, a node whose value is outside [lo, hi]
// can never match p, so Sweep/Collect may restrict their scan to the nodes
// plausibly in range. The interval is a NECESSARY condition only —
// candidates still need a per-node Match (bucket routing visits supersets,
// and PredAboveActive additionally requires max-find activity — the more
// selective half, so the engines route it through their max-find active
// list in nodecore.Shard, rather than through these bounds). ok is false
// for predicates decided by non-value node state — PredViolating (per-node
// filters) and PredHasTag (tags). PredViolating is nevertheless routable:
// filters are server-assigned, so the engines resolve it from their
// violator set (a vindex.Groups in nodecore.Shard) instead of these bounds; only
// PredHasTag (and domain-covering PredInRange intervals) still take the
// full node scan.
func (p Pred) Bounds() (lo, hi int64, ok bool) {
	switch p.Kind {
	case PredInRange:
		return p.X, p.Y, true
	case PredAboveActive:
		if p.Y < math.MaxInt64 {
			return p.X, math.MaxInt64, true // an id above Y may tie X
		}
		if p.X == math.MaxInt64 {
			return 1, 0, true // nothing exceeds X: empty interval
		}
		return p.X + 1, math.MaxInt64, true
	default:
		return 0, math.MaxInt64, false
	}
}

// Violating returns the violation predicate.
func Violating() Pred { return Pred{Kind: PredViolating} }

// AboveActive returns the max-find predicate "active and value > x": no
// id exceeds Y = math.MaxInt64, so no node of value x matches.
func AboveActive(x int64) Pred { return Pred{Kind: PredAboveActive, X: x, Y: math.MaxInt64} }

// AboveBest returns the max-find predicate "active and (value, id) above
// best's", the sweep of a max-find that holds best.
func AboveBest(best Report) Pred {
	return Pred{Kind: PredAboveActive, X: best.Value, Y: int64(best.ID)}
}

// Above reports whether (v, id) exceeds (x, y) in the max-find order:
// v > x, or v = x and id > y.
func Above(v, id, x, y int64) bool { return v > x || v == x && id > y }

// InRange returns the predicate "value ∈ [lo, hi]".
func InRange(lo, hi int64) Pred { return Pred{Kind: PredInRange, X: lo, Y: hi} }

// HasTag returns the predicate "tag == t".
func HasTag(t Tag) Pred { return Pred{Kind: PredHasTag, Tag: t} }

// FilterRule maps tags to filter intervals and may additionally rename tags
// (e.g. "S2 disbands: every V2∩S2 node becomes plain V2"). Broadcasting one
// rule lets every node first retag itself and then derive its own filter;
// rules carry O(1) intervals and tag pairs, so their bit size respects the
// model's message bound. The zero value is the empty rule.
type FilterRule struct {
	ByTag [NumTags]filter.Interval
	// Set marks which tags the rule defines; nodes with an unset tag keep
	// their current filter.
	Set [NumTags]bool
	// Retag maps an old tag to a new one, applied before filter lookup.
	Retag    [NumTags]Tag
	RetagSet [NumTags]bool
}

// With adds a tag → interval mapping and returns the rule for chaining.
func (r *FilterRule) With(t Tag, iv filter.Interval) *FilterRule {
	r.ByTag[t] = iv
	r.Set[t] = true
	return r
}

// WithRetag renames tag from → to before filter lookup.
func (r *FilterRule) WithRetag(from, to Tag) *FilterRule {
	r.Retag[from] = to
	r.RetagSet[from] = true
	return r
}

// Apply returns the new tag and filter for a node currently tagged t with
// filter cur.
func (r *FilterRule) Apply(t Tag, cur filter.Interval) (Tag, filter.Interval) {
	if r == nil {
		return t, cur
	}
	if r.RetagSet[t] {
		t = r.Retag[t]
	}
	if r.Set[t] {
		cur = r.ByTag[t]
	}
	return t, cur
}

// Report is a node → server value report.
type Report struct {
	ID    int
	Value int64
	Dir   filter.Direction
}

// BitSize helpers: the model requires message size ≤ c·(log n + log Δ).
// We account ids with ⌈log₂ n⌉ bits, values with ⌈log₂(Δ+1)⌉ bits, and O(1)
// bits of framing per message.

const frameBits = 8 // kind + direction + round framing

// IDBits returns the bits needed for a node id among n nodes.
func IDBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// ValueBits returns the bits needed for a value bounded by maxV.
func ValueBits(maxV int64) int {
	if maxV <= 1 {
		return 1
	}
	return bits.Len64(uint64(maxV))
}

// MsgBits returns the accounted bit size of one message of the given kind,
// in a system of n nodes and value bound maxV.
func MsgBits(k Kind, n int, maxV int64) int {
	id, val := IDBits(n), ValueBits(maxV)
	switch k {
	case KindExistenceReport, KindProbeReply, KindCollectReply:
		return frameBits + id + val
	case KindHalt:
		return frameBits
	case KindProbeRequest, KindTag:
		return frameBits + id
	case KindCollect:
		return frameBits + 2*val
	case KindSetFilter:
		return frameBits + id + 2*val
	case KindFilterRule:
		// ≤ NumTags interval endpoints; still O(log Δ) total.
		return frameBits + 2*val*int(NumTags)
	case KindMaxFindInit, KindMaxFindRaise:
		// An Init carries a seed's (value, id), a raise the new best's.
		return frameBits + id + val
	case KindMaxFindExclude:
		return frameBits + id
	default:
		return frameBits
	}
}
