package cluster

import (
	"fmt"

	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

// Nodes is the node side of an engine: what a server message does at the
// nodes, and nothing of its cost. Each method is one server message (or
// an EXISTENCE sweep's matchers and senders, or a step's observations)
// carried out on every node it addresses; the Server bills it. The one
// decision an implementation hides is who runs the node work:
// nodecore.Shard runs it inline over its own nodes, the live engine runs it
// over m Shards, on the caller or on its workers. Nodes draw no randomness.
//
// Replies come back in ascending id order. Each call has completed at
// every node it addresses when it returns, as each of the model's rounds
// completes before the next message is sent: no implementation defers a
// call, and none reads a call's arguments after it returns.
type Nodes interface {
	// Advance installs values[id] at node id for every id of ids, in that
	// order, or for every node when ids is nil, panicking on a value
	// outside [0, eps.MaxValue] before installing it. It returns the
	// largest value installed (0 when none was).
	Advance(values []int64, ids []int) int64
	// ApplyRule has every node retag itself by the rule and derive its
	// filter from its new tag.
	ApplyRule(rule *wire.FilterRule)
	// SetFilter assigns node id's filter.
	SetFilter(id int, iv filter.Interval)
	// SetTagFilter assigns node id's tag and filter.
	SetTagFilter(id int, t wire.Tag, iv filter.Interval)
	// Probe returns node id's report.
	Probe(id int) wire.Report
	// Collect appends the reports of the nodes matching p to dst.
	Collect(dst []wire.Report, p wire.Pred) []wire.Report
	// Resolve is round 0 of an EXISTENCE sweep for p: every node
	// evaluates p, and the nodes keep their matchers for the sweep's later
	// rounds. It returns their number M; the matchers' ranks 0..M−1 are
	// their places in id order.
	Resolve(p wire.Pred) int
	// Senders appends to dst the reports of the matchers of the last
	// Resolve at the given ranks, which ascend and lie below its M, so
	// the reports come in id order. It evaluates nothing: the matchers
	// were kept by Resolve, and no node changes while a sweep runs.
	Senders(dst []wire.Report, ranks []int32) []wire.Report
	// MaxFindInit, MaxFindRaise and MaxFindExclude apply the max-find
	// broadcasts of the same name.
	MaxFindInit(floor int64, reset bool)
	MaxFindRaise(holder int, best int64)
	MaxFindExclude(id int)
	// Reset returns every node to the state it had at construction.
	Reset()
	// AppendFilters appends every node's filter to dst in id order.
	AppendFilters(dst []filter.Interval) []filter.Interval
	// Node returns a copy of node i, for white-box tests.
	Node(i int) nodecore.Node
}

// Server is the server side of an engine over n nodes, written once for
// every Nodes: it implements Engine by billing each message on its counters
// and handing the node work to its Nodes. The counters, the server RNG, the
// running Δ that prices a message, the sweeps' sender sampler and the
// report buffers are its own; the nodes are the Nodes'.
type Server struct {
	nodes Nodes
	n     int
	ctr   *metrics.Counters
	rng   *rngx.Source
	maxV  int64         // running Δ for message-size accounting
	gaps  nodecore.Gaps // the EXISTENCE rounds' threshold tables over n
	ranks []int32       // a sweep's sender ranks, reused

	// sweepBuf backs the slices Sweep returns; collectBufs double-buffer
	// Collect so protocols holding one Collect result across a second
	// Collect (DENSEPROTOCOL, the Cor 5.9 monitor) stay correct. See the
	// ownership contract on Cluster.
	sweepBuf    []wire.Report
	collectBufs [2][]wire.Report
	collectIdx  int

	// DirectReports disables the EXISTENCE protocol: every matching node
	// reports in a single round, each paying one message — the naive
	// reporting scheme the paper's Section 3 improves on. Used by the
	// E11 ablation; leave false for the paper's algorithms. Reset clears it.
	DirectReports bool
}

// NewServer returns the server of the n nodes of nodes. Its stream, the
// engine's one, is rngx.New(seed).Child(nodecore.ServerRNG).
func NewServer(nodes Nodes, n int, seed uint64) Server {
	s := Server{
		nodes:    nodes,
		n:        n,
		ctr:      metrics.NewCounters(),
		rng:      rngx.New(seed).Child(nodecore.ServerRNG),
		maxV:     1,
		gaps:     nodecore.NewGaps(n),
		ranks:    make([]int32, 0, nodecore.ReportCap),
		sweepBuf: make([]wire.Report, 0, nodecore.ReportCap),
	}
	for i := range s.collectBufs {
		s.collectBufs[i] = make([]wire.Report, 0, nodecore.ReportCap)
	}
	return s
}

// Reset implements Cluster: it rewinds the server and the nodes to the
// state a construction from seed produces, reusing the counters, the
// buffers and the nodes. A reset engine replays a fresh engine's run bit
// for bit (asserted by the Reset property tests), which lets the
// experiment harness reuse one engine across all trials of a table cell.
func (s *Server) Reset(seed uint64) {
	s.ctr.Reset()
	s.rng.Reseed(rngx.New(seed).ChildSeed(nodecore.ServerRNG))
	s.maxV = 1
	s.DirectReports = false
	s.nodes.Reset()
}

// N implements Cluster.
func (s *Server) N() int { return s.n }

// Counters implements Cluster.
func (s *Server) Counters() *metrics.Counters { return s.ctr }

// Rand implements Cluster.
func (s *Server) Rand() *rngx.Source { return s.rng }

// Advance implements Inspector: every node observes its entry of values.
// The streams are observed locally at the nodes, so it bills no message.
func (s *Server) Advance(values []int64) { s.install(values, nil) }

// AdvanceDirty implements Inspector: the same install as Advance, for the
// dirty nodes only and in the order given, so a step costs its dirty set
// and not n.
func (s *Server) AdvanceDirty(values []int64, dirty []int) {
	if dirty == nil {
		dirty = []int{} // a nil list would name every node
	}
	s.install(values, dirty)
}

// install checks that values has one entry per node — the nodes check each
// value they install — hands the install to the nodes in one call, and
// folds the largest installed value into the running Δ.
func (s *Server) install(values []int64, ids []int) {
	if len(values) != s.n {
		panic(fmt.Sprintf("cluster: Advance with %d values for %d nodes", len(values), s.n))
	}
	s.maxV = max(s.maxV, s.nodes.Advance(values, ids))
}

// EndStep implements Inspector.
func (s *Server) EndStep() { s.ctr.EndStep() }

// FiltersInto implements Inspector.
func (s *Server) FiltersInto(dst []filter.Interval) []filter.Interval {
	return s.nodes.AppendFilters(dst[:0])
}

// Node returns a copy of one node — its value, tag and filter — for
// white-box tests. Not part of the cluster interfaces and never used by
// protocols. No program calls it; the tests of this package, internal/live
// and internal/sim do.
func (s *Server) Node(i int) nodecore.Node { return s.nodes.Node(i) }

func (s *Server) count(ch metrics.Channel, k wire.Kind) {
	s.ctr.Count(ch, k, wire.MsgBits(k, s.n, s.maxV))
}

// fallback bills one full-scan fallback for an unroutable predicate. The
// decision is the predicate's alone, so it never depends on the nodes.
func (s *Server) fallback(p wire.Pred) {
	if !vindex.Routable(p) {
		s.ctr.IndexFallback()
	}
}

// BroadcastRule implements Cluster.
func (s *Server) BroadcastRule(rule *wire.FilterRule) {
	s.count(metrics.Broadcast, wire.KindFilterRule)
	s.ctr.Rounds(1)
	s.nodes.ApplyRule(rule)
}

// SetFilter implements Cluster.
func (s *Server) SetFilter(id int, iv filter.Interval) {
	s.count(metrics.ServerToNode, wire.KindSetFilter)
	s.nodes.SetFilter(id, iv)
}

// SetTagFilter implements Cluster.
func (s *Server) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	s.count(metrics.ServerToNode, wire.KindSetFilter)
	s.nodes.SetTagFilter(id, t, iv)
}

// Probe implements Cluster.
func (s *Server) Probe(id int) wire.Report {
	s.count(metrics.ServerToNode, wire.KindProbeRequest)
	s.count(metrics.NodeToServer, wire.KindProbeReply)
	s.ctr.Rounds(1)
	return s.nodes.Probe(id)
}

// Collect implements Cluster. Results alternate between two server-owned
// buffers, honouring the contract that a Collect result survives exactly
// one further Collect.
func (s *Server) Collect(p wire.Pred) []wire.Report {
	s.count(metrics.Broadcast, wire.KindCollect)
	s.ctr.Rounds(1)
	s.fallback(p)
	out := s.nodes.Collect(s.collectBufs[s.collectIdx][:0], p)
	for range out {
		s.count(metrics.NodeToServer, wire.KindCollectReply)
	}
	s.collectBufs[s.collectIdx] = out
	s.collectIdx ^= 1
	return out
}

// Sweep implements Cluster: the EXISTENCE protocol of Lemma 3.1. Matching
// nodes send independently with probability p_r = 2^r/n in round r; the
// first non-empty round terminates the sweep (one halt broadcast). Round 0
// resolves the matchers at the nodes. The server draws each round's
// senders as ranks over them (nodecore.Gaps, from its own stream) and asks
// the nodes for the reports at those ranks only, so a round costs its
// senders, and a round that draws none costs the nodes nothing. A sweep
// without matchers ends after round 0, with the remaining rounds billed and
// not run: it bills its γ+1 rounds, draws nothing and costs the nodes one
// round.
func (s *Server) Sweep(p wire.Pred) []wire.Report {
	s.fallback(p)
	if s.DirectReports {
		return s.directSweep(p)
	}
	s.ctr.Rounds(1)
	m := s.nodes.Resolve(p)
	if m == 0 {
		s.ctr.Rounds(int64(nodecore.ExistenceRounds(s.n)))
		return nil
	}
	ranks := s.gaps.Ranks(s.ranks[:0], s.rng, 0, m)
	for r := 1; len(ranks) == 0; r++ { // the final round sends with certainty
		s.ctr.Rounds(1)
		ranks = s.gaps.Ranks(ranks, s.rng, r, m)
	}
	s.ranks = ranks[:0]
	senders := s.nodes.Senders(s.sweepBuf[:0], ranks)
	for range senders {
		s.count(metrics.NodeToServer, wire.KindExistenceReport)
	}
	s.count(metrics.Broadcast, wire.KindHalt)
	s.sweepBuf = senders[:0]
	return senders
}

// directSweep is the naive reporting scheme (one round, every matching node
// sends); it is always correct but costs one message per matching node per
// sweep — the baseline against which Lemma 3.1's O(1) expectation wins.
func (s *Server) directSweep(p wire.Pred) []wire.Report {
	s.ctr.Rounds(1)
	senders := s.nodes.Collect(s.sweepBuf[:0], p)
	for range senders {
		s.count(metrics.NodeToServer, wire.KindExistenceReport)
	}
	s.sweepBuf = senders[:0]
	if len(senders) == 0 {
		return nil
	}
	return senders
}

// DetectViolation implements Cluster: one violation sweep; among the
// terminating round's senders one is chosen uniformly (the server
// "processes one violation at a time in an arbitrary order").
func (s *Server) DetectViolation() (wire.Report, bool) {
	senders := s.Sweep(wire.Violating())
	if len(senders) == 0 {
		return wire.Report{}, false
	}
	return senders[s.rng.Intn(len(senders))], true
}

// MaxFindInit implements Cluster.
func (s *Server) MaxFindInit(floor int64, reset bool) {
	s.count(metrics.Broadcast, wire.KindMaxFindInit)
	s.ctr.Rounds(1)
	s.nodes.MaxFindInit(floor, reset)
}

// MaxFindSeed implements Cluster. Fault-free, the seed's node always
// answers, and its reply is billed without reading the node: within a
// probe no value changes, so it repeats the seed.
func (s *Server) MaxFindSeed(seed wire.Report) bool {
	s.count(metrics.Broadcast, wire.KindMaxFindInit)
	s.count(metrics.NodeToServer, wire.KindProbeReply)
	s.ctr.Rounds(1)
	s.nodes.MaxFindInit(seed.Value-1, false)
	return true
}

// MaxFindRaise implements Cluster.
func (s *Server) MaxFindRaise(holder int, best int64) {
	s.count(metrics.Broadcast, wire.KindMaxFindRaise)
	s.ctr.Rounds(1)
	s.nodes.MaxFindRaise(holder, best)
}

// MaxFindExclude implements Cluster.
func (s *Server) MaxFindExclude(id int) {
	s.count(metrics.Broadcast, wire.KindMaxFindExclude)
	s.ctr.Rounds(1)
	s.nodes.MaxFindExclude(id)
}
