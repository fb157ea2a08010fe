// Package lockstep implements the cluster interface as a deterministic
// sequential simulation: nodes are plain structs, rounds are loops, and the
// only nondeterminism comes from explicitly seeded PRNGs. It is the primary
// substrate for unit tests, property tests, and the experiment harness,
// and is — by construction — exactly the synchronous unit-cost model of
// Section 2.
//
// The engine keeps a value-bucket index, a filter-interval mirror and the
// max-find active list (internal/vindex) over its nodes, maintained
// incrementally at every node mutation: predicate-routed primitives (Sweep,
// Collect) visit only the nodes whose values can match the predicate's
// wire.Pred.Bounds interval, violation sweeps exactly the mirror's violator
// set, and max-find sweeps the active nodes. Every primitive resolves its
// predicate once (vindex.Router.Matchers) and a sweep runs its γ+1 rounds
// over the matchers only, so a step's cost tracks its matchers instead of
// n × rounds. Tag predicates and domain-covering intervals fall back to the
// full scan. Routing is invisible to protocols: reports stay in id order,
// exactly the matching nodes draw one coin per round, and messages are
// counted identically — asserted byte-for-byte by
// TestIndexedScanMatchesFullScan.
package lockstep

import (
	"fmt"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

// Engine is a deterministic lockstep cluster of n nodes.
type Engine struct {
	nodes []*nodecore.Node
	ctr   *metrics.Counters
	rng   *rngx.Source
	maxV  int64 // running Δ for message-size accounting

	// router holds the value-bucket index (maintained at every install),
	// the violator set (maintained at every install and every filter
	// assignment) and the max-find active list (maintained by the three
	// MaxFind* broadcasts) over the nodes, plus the scratch that turns
	// predicates into id-ordered scan and matcher lists. visited counts the
	// node structs predicate-routed primitives actually touched — the
	// observable the index shrinks from n to the plausible-matcher count
	// (reported by E12).
	router  vindex.Router
	visited int64

	// FullScan forces the full-scan path everywhere. Ablation scaffolding
	// (like DirectReports) for the index equivalence property tests and
	// BenchmarkViolationSweep; leave false otherwise. It never perturbs
	// outputs, counters, or coin flips — only the engine-side scan cost.
	FullScan bool

	// sweepBuf backs the slices returned by Sweep/directSweep; collectBufs
	// double-buffer Collect so protocols holding one Collect result across
	// a second Collect (DENSEPROTOCOL, the Cor 5.9 monitor) stay correct.
	// See the ownership contract on cluster.Cluster.
	sweepBuf    []wire.Report
	collectBufs [2][]wire.Report
	collectIdx  int

	// DirectReports disables the EXISTENCE protocol: every matching node
	// reports in a single round, each paying one message — the naive
	// reporting scheme the paper's Section 3 improves on. Used by the
	// E11 ablation; leave false for the paper's algorithms.
	DirectReports bool
}

// reportCap is the initial capacity of the engine-owned report buffers: a
// terminating EXISTENCE round has O(1) senders in expectation and a
// protocol's collects return k + σ reports, so a run whose reports stay
// below it never allocates after construction. Larger results grow a
// buffer once.
const reportCap = 64

// serverRNG is the Child id of the server-side randomness stream, shared
// with the live engine so both derive identical server coin flips from the
// same seed.
const serverRNG = 0xC0FFEE

// New returns an engine with n nodes, all values 0, all filters [0, ∞].
func New(n int, seed uint64) *Engine {
	if n < 1 {
		panic("lockstep: need at least one node")
	}
	root := rngx.New(seed)
	e := &Engine{
		nodes:  make([]*nodecore.Node, n),
		ctr:    metrics.NewCounters(),
		rng:    root.Child(serverRNG),
		maxV:   1,
		router: vindex.NewRouter(0, n),
	}
	e.sweepBuf = make([]wire.Report, 0, reportCap)
	for i := range e.collectBufs {
		e.collectBufs[i] = make([]wire.Report, 0, reportCap)
	}
	for i := range e.nodes {
		e.nodes[i] = nodecore.New(i, root)
	}
	return e
}

// Reset implements cluster.Cluster: it rewinds the engine to the state
// New(len(nodes), seed) constructs, reusing nodes, counters, and the
// sweep/collect buffers. A reset engine replays a fresh engine's run
// bit for bit (asserted by the Reset property tests), which lets the
// experiment harness reuse one engine across all trials of a table cell.
func (e *Engine) Reset(seed uint64) {
	root := rngx.New(seed)
	for _, nd := range e.nodes {
		nd.Reset(root)
	}
	e.ctr.Reset()
	e.rng.Reseed(root.ChildSeed(serverRNG))
	e.maxV = 1
	e.router.Reset()
	e.visited = 0
	e.DirectReports = false
	e.FullScan = false
}

// N implements cluster.Cluster.
func (e *Engine) N() int { return len(e.nodes) }

// Counters implements cluster.Cluster.
func (e *Engine) Counters() *metrics.Counters { return e.ctr }

// Rand implements cluster.Cluster.
func (e *Engine) Rand() *rngx.Source { return e.rng }

// Advance implements cluster.Inspector: every node observes its entry of
// values. The streams are observed locally at the nodes, so it bills no
// message; its engine-side cost is n installs.
func (e *Engine) Advance(values []int64) { e.install(values, nil, len(values)) }

// AdvanceDirty implements cluster.Inspector: the same install as Advance,
// for the dirty nodes only and in the order given, so a step costs its
// dirty set and not n. Install order is invisible afterwards — the index
// and the violator set are sorted before every use.
func (e *Engine) AdvanceDirty(values []int64, dirty []int) { e.install(values, dirty, len(dirty)) }

// install is the one routine behind both Advance forms. It installs count
// observations — of the nodes ids[0:count], or of nodes 0..count-1 when ids
// is nil (the dense form): range check, Observe, then the two derived
// structures and the running Δ.
func (e *Engine) install(values []int64, ids []int, count int) {
	if len(values) != len(e.nodes) {
		panic(fmt.Sprintf("lockstep: Advance with %d values for %d nodes", len(values), len(e.nodes)))
	}
	for i := 0; i < count; i++ {
		id := i
		if ids != nil {
			id = ids[i]
		}
		v := values[id]
		if v < 0 || v > eps.MaxValue {
			panic(fmt.Sprintf("lockstep: value %d for node %d outside [0, %d]", v, id, eps.MaxValue))
		}
		nd := e.nodes[id]
		nd.Observe(v)
		e.router.Idx.Update(id, v)
		e.router.Mir.Set(id, v, nd.Filter)
		if v > e.maxV {
			e.maxV = v
		}
	}
}

// EndStep closes the current step's round accounting.
func (e *Engine) EndStep() { e.ctr.EndStep() }

// FiltersInto implements cluster.Inspector: it appends all current node
// filters to dst[:0] and returns it, growing dst only when too small.
func (e *Engine) FiltersInto(dst []filter.Interval) []filter.Interval {
	dst = dst[:0]
	for _, nd := range e.nodes {
		dst = append(dst, nd.Filter)
	}
	return dst
}

// Node exposes one node for white-box tests. Not part of the cluster
// interfaces and never used by protocols. Callers must treat the node as
// read-only: mutating Value or Filter behind the engine's back desyncs the
// value index and the filter mirror (see the nodecore state-mutation
// contract) — assign filters through SetFilter instead.
func (e *Engine) Node(i int) *nodecore.Node { return e.nodes[i] }

// VisitedNodes returns the cumulative number of node structs the
// predicate-routed primitives (Sweep, DetectViolation, Collect) have
// evaluated their predicate on since construction or the last Reset — per
// call, the size of the scan list, once: a sweep resolves its matchers
// before its first round and its rounds visit no further candidate.
// Simulation scaffolding for measuring the value index's selectivity
// (experiment E12); it is not message accounting and not part of the
// cluster interfaces.
func (e *Engine) VisitedNodes() int64 { return e.visited }

// matchers resolves a predicate once for a predicate-routed primitive: the
// nodes matching p, in ascending id order — vindex.Router.Matchers (the
// routing policy shared with the live engine's shards) behind the FullScan
// ablation toggle, which ignores the routing structures when choosing the
// candidates. Non-routable predicates bill one full-scan fallback on the
// counters; the decision is predicate-only, so the live engine counts
// identically and the FullScan toggle never perturbs the count.
func (e *Engine) matchers(p wire.Pred) []*nodecore.Node {
	if !vindex.Routable(p) {
		e.ctr.IndexFallback()
	}
	scan := e.nodes
	if !e.FullScan {
		scan = e.router.ScanList(p, e.nodes, 0)
	}
	e.visited += int64(len(scan))
	return e.router.Resolve(p, scan)
}

func (e *Engine) count(ch metrics.Channel, k wire.Kind) {
	e.ctr.Count(ch, k, wire.MsgBits(k, len(e.nodes), e.maxV))
}

// report bills one node → server message of kind k and appends nd's report
// to dst.
func (e *Engine) report(dst []wire.Report, nd *nodecore.Node, k wire.Kind) []wire.Report {
	e.count(metrics.NodeToServer, k)
	return append(dst, nd.Report())
}

// BroadcastRule implements cluster.Cluster. Each node is re-evaluated
// against its derived filter after the rule applies — the mirror needs no
// tag state of its own, it reads what the node actually holds.
func (e *Engine) BroadcastRule(rule *wire.FilterRule) {
	e.count(metrics.Broadcast, wire.KindFilterRule)
	e.ctr.Rounds(1)
	for _, nd := range e.nodes {
		nd.ApplyFilterRule(rule)
		e.router.Mir.Set(nd.ID, nd.Value, nd.Filter)
	}
}

// SetFilter implements cluster.Cluster.
func (e *Engine) SetFilter(id int, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	e.setFilter(e.nodes[id], iv)
}

func (e *Engine) setFilter(nd *nodecore.Node, iv filter.Interval) {
	nd.SetFilter(iv)
	e.router.Mir.Set(nd.ID, nd.Value, iv)
}

// SetTagFilter implements cluster.Cluster.
func (e *Engine) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	nd := e.nodes[id]
	nd.SetTag(t)
	e.setFilter(nd, iv)
}

// Probe implements cluster.Cluster.
func (e *Engine) Probe(id int) wire.Report {
	e.count(metrics.ServerToNode, wire.KindProbeRequest)
	e.count(metrics.NodeToServer, wire.KindProbeReply)
	e.ctr.Rounds(1)
	return e.nodes[id].Report()
}

// Collect implements cluster.Cluster. Results alternate between two
// engine-owned buffers, honouring the Cluster contract that a Collect result
// survives exactly one further Collect. The scan is routed through the
// Router's structures, so server-side work tracks the plausible matchers,
// not n; the message cost (1 broadcast + 1 per match) is identical either
// way.
func (e *Engine) Collect(p wire.Pred) []wire.Report {
	e.count(metrics.Broadcast, wire.KindCollect)
	e.ctr.Rounds(1)
	out := e.collectBufs[e.collectIdx][:0]
	for _, nd := range e.matchers(p) {
		out = e.report(out, nd, wire.KindCollectReply)
	}
	e.collectBufs[e.collectIdx] = out
	e.collectIdx ^= 1
	return out
}

// Sweep implements cluster.Cluster: the EXISTENCE protocol of Lemma 3.1.
// Nodes matching the predicate send independently with probability
// p_r = 2^r/n per round; the first non-empty round terminates the sweep
// (one halt broadcast). With no matching node the sweep is silent and free:
// its γ+1 rounds are billed and nothing else happens.
//
// The matchers are resolved once: node state only changes through Advance
// and the server's own messages, neither of which can interleave with a
// running sweep. Exactly the matchers draw, one coin per round up to the
// terminating round, in id order.
func (e *Engine) Sweep(p wire.Pred) []wire.Report {
	if e.DirectReports {
		return e.directSweep(p)
	}
	n := len(e.nodes)
	gamma := nodecore.ExistenceRounds(n)
	m := e.matchers(p)
	if len(m) == 0 {
		e.ctr.Rounds(int64(gamma) + 1)
		return nil
	}
	for r := 0; r <= gamma; r++ {
		e.ctr.Rounds(1)
		prob := nodecore.ExistenceProb(r, n)
		senders := e.sweepBuf[:0]
		for _, nd := range m {
			if nd.RNG.Bool(prob) {
				senders = e.report(senders, nd, wire.KindExistenceReport)
			}
		}
		e.sweepBuf = senders[:0]
		if len(senders) > 0 {
			e.count(metrics.Broadcast, wire.KindHalt)
			return senders
		}
	}
	return nil // not reached: the final round sends with certainty
}

// directSweep is the naive reporting scheme (one round, every matching node
// sends); it is always correct but costs one message per matching node per
// sweep — the baseline against which Lemma 3.1's O(1) expectation wins.
func (e *Engine) directSweep(p wire.Pred) []wire.Report {
	e.ctr.Rounds(1)
	senders := e.sweepBuf[:0]
	for _, nd := range e.matchers(p) {
		senders = e.report(senders, nd, wire.KindExistenceReport)
	}
	e.sweepBuf = senders[:0]
	if len(senders) == 0 {
		return nil
	}
	return senders
}

// DetectViolation implements cluster.Cluster: one violation sweep; among the
// terminating round's senders one is chosen uniformly (the server "processes
// one violation at a time in an arbitrary order").
func (e *Engine) DetectViolation() (wire.Report, bool) {
	senders := e.Sweep(wire.Violating())
	if len(senders) == 0 {
		return wire.Report{}, false
	}
	return senders[e.rng.Intn(len(senders))], true
}

// MaxFindInit implements cluster.Cluster.
func (e *Engine) MaxFindInit(floor int64, reset bool) {
	e.count(metrics.Broadcast, wire.KindMaxFindInit)
	e.ctr.Rounds(1)
	e.router.MaxFindInit(e.nodes, floor, reset)
}

// MaxFindRaise implements cluster.Cluster.
func (e *Engine) MaxFindRaise(holder int, best int64) {
	e.count(metrics.Broadcast, wire.KindMaxFindRaise)
	e.ctr.Rounds(1)
	e.router.MaxFindRaise(holder, best)
}

// MaxFindExclude implements cluster.Cluster.
func (e *Engine) MaxFindExclude(id int) {
	e.count(metrics.Broadcast, wire.KindMaxFindExclude)
	e.ctr.Rounds(1)
	e.router.MaxFindExclude(e.nodes[id])
}
