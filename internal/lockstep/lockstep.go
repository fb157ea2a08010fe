// Package lockstep implements the cluster interface as a deterministic
// sequential simulation: nodes are plain structs, rounds are loops, and the
// only nondeterminism comes from explicitly seeded PRNGs. It is the primary
// substrate for unit tests, property tests, and the experiment harness,
// and is — by construction — exactly the synchronous unit-cost model of
// Section 2.
//
// The nodes live in one nodecore.Shard over [0, n), which keeps the routing
// structures in step with every node mutation (its doc comment has the
// contract) and is called directly: predicate-routed primitives (Sweep,
// Collect) visit only the nodes its structures say can match, every
// primitive resolves its predicate once, and a sweep runs its γ+1 rounds
// over the matchers only, so a step's cost tracks its matchers instead of
// n × rounds. What stays here is the server side: message billing, the
// report buffers and the FullScan, DirectReports and VisitedNodes
// ablations. Routing is invisible to protocols: reports stay in id order,
// exactly the matching nodes draw one coin per round, and messages are
// counted identically — asserted byte-for-byte by
// TestIndexedScanMatchesFullScan.
package lockstep

import (
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

// Engine is a deterministic lockstep cluster of n nodes.
type Engine struct {
	sh   *nodecore.Shard // the nodes and their routing structures
	ctr  *metrics.Counters
	rng  *rngx.Source
	maxV int64 // running Δ for message-size accounting

	// visited counts the node structs predicate-routed primitives actually
	// touched — the observable the index shrinks from n to the
	// plausible-matcher count (reported by E12).
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

// New returns an engine with n nodes, all values 0, all filters [0, ∞].
func New(n int, seed uint64) *Engine {
	if n < 1 {
		panic("lockstep: need at least one node")
	}
	root := rngx.New(seed)
	e := &Engine{
		sh:   nodecore.NewShard(0, n, root),
		ctr:  metrics.NewCounters(),
		rng:  root.Child(nodecore.ServerRNG),
		maxV: 1,
	}
	e.sweepBuf = make([]wire.Report, 0, nodecore.ReportCap)
	for i := range e.collectBufs {
		e.collectBufs[i] = make([]wire.Report, 0, nodecore.ReportCap)
	}
	return e
}

// Reset implements cluster.Cluster: it rewinds the engine to the state
// New(N(), seed) constructs, reusing nodes, counters, and the
// sweep/collect buffers. A reset engine replays a fresh engine's run
// bit for bit (asserted by the Reset property tests), which lets the
// experiment harness reuse one engine across all trials of a table cell.
func (e *Engine) Reset(seed uint64) {
	root := rngx.New(seed)
	e.sh.Reset(root)
	e.ctr.Reset()
	e.rng.Reseed(root.ChildSeed(nodecore.ServerRNG))
	e.maxV = 1
	e.visited = 0
	e.DirectReports = false
	e.FullScan = false
}

// N implements cluster.Cluster.
func (e *Engine) N() int { return len(e.sh.Nodes()) }

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
// is nil (the dense form): the argument checks shared with live, the
// shard's Install, and the running Δ.
func (e *Engine) install(values []int64, ids []int, count int) {
	nodecore.CheckAdvance("lockstep", e.N(), values)
	for i := 0; i < count; i++ {
		id := i
		if ids != nil {
			id = ids[i]
		}
		v := values[id]
		nodecore.CheckValue("lockstep", id, v)
		e.sh.Install(id, v)
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
	for _, nd := range e.sh.Nodes() {
		dst = append(dst, nd.Filter)
	}
	return dst
}

// Node exposes one node for white-box tests. Not part of the cluster
// interfaces and never used by protocols. Read-only, as the
// nodecore.Shard contract says: assign filters through SetFilter instead.
func (e *Engine) Node(i int) *nodecore.Node { return e.sh.Node(i) }

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
// nodes matching p, in ascending id order, kept by the shard for Draw —
// Shard.Matchers (the routing policy shared with the live engine's shards)
// behind the FullScan ablation toggle, which ignores the routing structures
// when choosing the candidates. Non-routable predicates bill one full-scan
// fallback on the counters; the decision is predicate-only, so the live
// engine counts identically and the FullScan toggle never perturbs the
// count.
func (e *Engine) matchers(p wire.Pred) []*nodecore.Node {
	if !vindex.Routable(p) {
		e.ctr.IndexFallback()
	}
	scan := e.sh.Nodes()
	if !e.FullScan {
		scan = e.sh.ScanList(p)
	}
	e.visited += int64(len(scan))
	return e.sh.Resolve(p, scan)
}

func (e *Engine) count(ch metrics.Channel, k wire.Kind) {
	e.ctr.Count(ch, k, wire.MsgBits(k, e.N(), e.maxV))
}

// report bills one node → server message of kind k and appends nd's report
// to dst.
func (e *Engine) report(dst []wire.Report, nd *nodecore.Node, k wire.Kind) []wire.Report {
	e.count(metrics.NodeToServer, k)
	return append(dst, nd.Report())
}

// BroadcastRule implements cluster.Cluster.
func (e *Engine) BroadcastRule(rule *wire.FilterRule) {
	e.count(metrics.Broadcast, wire.KindFilterRule)
	e.ctr.Rounds(1)
	e.sh.ApplyRule(rule)
}

// SetFilter implements cluster.Cluster.
func (e *Engine) SetFilter(id int, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	e.sh.SetFilter(id, iv)
}

// SetTagFilter implements cluster.Cluster.
func (e *Engine) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	e.sh.SetTagFilter(id, t, iv)
}

// Probe implements cluster.Cluster.
func (e *Engine) Probe(id int) wire.Report {
	e.count(metrics.ServerToNode, wire.KindProbeRequest)
	e.count(metrics.NodeToServer, wire.KindProbeReply)
	e.ctr.Rounds(1)
	return e.sh.Node(id).Report()
}

// Collect implements cluster.Cluster. Results alternate between two
// engine-owned buffers, honouring the Cluster contract that a Collect result
// survives exactly one further Collect. The scan is routed through the
// shard's structures, so server-side work tracks the plausible matchers,
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
// running sweep. Exactly the matchers draw (Shard.Draw), one coin per round
// up to the terminating round, in id order.
func (e *Engine) Sweep(p wire.Pred) []wire.Report {
	if e.DirectReports {
		return e.directSweep(p)
	}
	n := e.N()
	gamma := nodecore.ExistenceRounds(n)
	if len(e.matchers(p)) == 0 {
		e.ctr.Rounds(int64(gamma) + 1)
		return nil
	}
	for r := 0; r <= gamma; r++ {
		e.ctr.Rounds(1)
		senders := e.sh.Draw(e.sweepBuf[:0], nodecore.ExistenceProb(r, n))
		for range senders {
			e.count(metrics.NodeToServer, wire.KindExistenceReport)
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
	e.sh.MaxFindInit(floor, reset)
}

// MaxFindRaise implements cluster.Cluster.
func (e *Engine) MaxFindRaise(holder int, best int64) {
	e.count(metrics.Broadcast, wire.KindMaxFindRaise)
	e.ctr.Rounds(1)
	e.sh.MaxFindRaise(holder, best)
}

// MaxFindExclude implements cluster.Cluster.
func (e *Engine) MaxFindExclude(id int) {
	e.count(metrics.Broadcast, wire.KindMaxFindExclude)
	e.ctr.Rounds(1)
	e.sh.MaxFindExclude(id)
}
