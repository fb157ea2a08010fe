// Package cluster defines the engine-neutral server-side interface through
// which all monitoring protocols talk to the distributed nodes.
//
// It is implemented once, by Server: the model's server, which bills every
// message and round and runs the EXISTENCE loop, over a Nodes that carries
// each message out at the nodes. There are two node sides, and so two
// engines: the deterministic sequential engine (internal/lockstep, one
// nodecore.Shard run inline), the primary substrate for tests and
// experiments, and the concurrent goroutine engine (internal/live, m
// Shards run by worker goroutines, or by the caller when a call is small)
// used by the runnable demos. Protocol code written against this interface runs
// unchanged on both; their message counters and the server's draws agree
// by construction, and the cross-engine equivalence tests assert that their
// node sides — and so their outputs — agree for equal seeds too.
//
// Every method that moves information between server and nodes has a unit
// communication cost per message, matching the model of Section 2.
//
// # Buffer ownership
//
// Both engines run allocation-free in steady state by reusing internal
// buffers; the slices they hand out therefore have documented lifetimes
// rather than being fresh copies:
//
//   - Collect results survive exactly one further Collect (the Server
//     double-buffers them, because DENSEPROTOCOL holds one result across a
//     second Collect). Protocols needing a longer lifetime must copy.
//   - Sweep and DetectViolation results are recycled by the next sweep.
//   - FiltersInto appends into caller-owned scratch, reusing its capacity.
//   - BroadcastRule arguments are fully applied before the call returns,
//     so callers may mutate and reuse one rule across broadcasts.
//
// # Engine reuse
//
// Reset(seed) rewinds an engine to the state a fresh construction with
// that seed would produce, keeping nodes and buffers — the experiment
// harness runs hundreds of trials per table cell on one engine instead of
// constructing one per trial. The Reset property tests assert that a reset
// engine's trace is byte-identical to a fresh engine's.
//
// # Selectivity of Sweep and Collect
//
// A Collect is round 0 of a sweep in which every matcher sends: the Server
// runs both as Nodes.Resolve, the one place the node side evaluates a
// predicate, and reads the reports through Nodes.Senders — at the ranks it
// draws for a sweep, at every rank for a Collect. Both node sides hold
// their nodes in nodecore.Shard, which keeps three routing structures in
// step with every node mutation (its doc comment states that contract once
// for both engines), and Resolve routes through them. Interval predicates
// go through a value-bucket index (internal/vindex) keyed by
// wire.Pred.Bounds: only nodes whose values can possibly match the
// predicate's interval are visited, so the engines' internal scan cost
// tracks the plausible-matcher count σ rather than n. The violation
// predicate — whose matches depend on per-node filters, not value bounds —
// goes through the violator set (a vindex.Groups whose group 1 holds the
// violators): the server assigns every filter, so the shard rechecks a node
// against its filter whenever either changes, making the scheduled
// quiet-step violation sweep O(1) server-side work. The max-find
// predicate (AboveActive, at any threshold) goes through the list of
// max-find-active nodes, which the three MaxFind* broadcasts — the flag's
// only writers — keep. Each primitive resolves its predicate once: a
// sweep's rounds draw their senders over the nodes that matched in round 0,
// and a sweep nobody matches bills its γ+1 rounds and does no other work
// than its round 0 (one node round on the live engine). All routing is an
// implementation property with NO protocol-visible effect — the model's
// message costs stated on each method, the report contents and id order,
// the rounds billed and every draw are identical to a full scan repeated
// every round (nodes outside the candidates could not have matched or
// sent, and node state cannot change while a sweep runs). Only tag
// predicates (HasTag) and domain-covering InRange intervals scan all
// nodes, the documented fallback. Protocols should therefore prefer
// interval predicates over tag collects when either formulation is
// available.
package cluster

import (
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// Cluster is the server's view of the distributed system.
type Cluster interface {
	// N returns the number of nodes.
	N() int
	// Counters exposes the communication accounting.
	Counters() *metrics.Counters
	// Rand is the server-side randomness source.
	Rand() *rngx.Source

	// Reset returns the engine to the state a fresh construction with the
	// same n and the given seed would produce: values zeroed, filters
	// all-admitting, tags cleared, max-find state forgotten, counters
	// emptied, and the server's RNG stream rewound. Nodes
	// and internal buffers are retained, so experiment harnesses can run
	// hundreds of independent trials on one engine instead of constructing
	// one per trial. Reset is harness scaffolding: a protocol never calls
	// it, and monitors built on the engine before a Reset must be rebuilt.
	Reset(seed uint64)

	// BroadcastRule sends one filter rule to all nodes (cost 1); each node
	// retags itself and derives its filter from its tag. The rule is fully
	// applied when the call returns, so callers may mutate and reuse it.
	BroadcastRule(rule *wire.FilterRule)
	// SetFilter assigns one node's filter (cost 1).
	SetFilter(id int, iv filter.Interval)
	// SetTagFilter assigns one node's tag and filter in a single unicast
	// (cost 1; both fit well inside the log-size message bound).
	SetTagFilter(id int, t wire.Tag, iv filter.Interval)
	// Probe requests and receives one node's value (cost 2).
	Probe(id int) wire.Report
	// Collect broadcasts a predicate; every matching node reports
	// (cost 1 + number of matches). The returned slice is owned by the
	// engine: it stays valid across at most one further Collect and is
	// recycled after that — protocols holding a result longer must copy.
	Collect(p wire.Pred) []wire.Report

	// Sweep runs the EXISTENCE protocol of Lemma 3.1 for the predicate:
	// zero messages when no node matches; otherwise the senders of the
	// terminating round (each cost 1) plus one halt broadcast. The sweep
	// itself needs no kickoff broadcast — it is part of the per-step
	// schedule all nodes know. The nodes that match when the sweep starts
	// are its participants for all its rounds; in round r each sends
	// independently with probability 2^r/n (with certainty in round γ).
	// The engine draws that law as sender ranks over the participants in
	// id order, from the server's stream (Rand), at a cost of O(1 + senders)
	// draws a round rather than a coin per participant. The rounds run are
	// billed on the counters; a sweep without participants bills all γ+1
	// and draws nothing. The returned slice is
	// owned by the engine and is recycled by the next Sweep or
	// DetectViolation.
	Sweep(p wire.Pred) []wire.Report

	// DetectViolation runs a violation sweep and returns one violator
	// (chosen among the terminating round's senders), or ok=false when no
	// node violates its filter.
	DetectViolation() (wire.Report, bool)

	// MaxFindInit (broadcast, cost 1) activates nodes above floor for a
	// max-find run; reset also clears exclusions.
	MaxFindInit(floor int64, reset bool)
	// MaxFindSeed (broadcast, cost 1, and one reply) is the Init of a
	// max-find that starts from seed, a report the server holds of a node
	// not excluded. It carries seed's (value, id): the nodes not excluded
	// whose value is at least seed's become active, as MaxFindInit at
	// floor seed.Value−1 without reset makes them, and the first sweep asks
	// for those above (value, id). The seed's node acknowledges it with its
	// report (a probe reply), so a lost broadcast cannot pass for a silent
	// first sweep. It reports whether the acknowledgement arrived; false
	// leaves the nodes' max-find state unknown to the server.
	MaxFindSeed(seed wire.Report) bool
	// MaxFindRaise (broadcast, cost 1) announces a new best.
	MaxFindRaise(holder int, best int64)
	// MaxFindExclude (broadcast, cost 1) benches a found maximum.
	MaxFindExclude(id int)
}

// Inspector is the simulation-scaffolding side door: the step clock, and
// the filter read adaptive adversaries need — never used by protocols.
// Engines implement it alongside Cluster.
type Inspector interface {
	// FiltersInto appends all current node filters to dst[:0] and returns
	// it, reusing dst's capacity, so a per-step loop allocates nothing.
	FiltersInto(dst []filter.Interval) []filter.Interval
	// Advance installs the next observations (start of a time step): one
	// value per node, each in [0, eps.MaxValue] — a value outside panics.
	Advance(values []int64)
	// AdvanceDirty is Advance for a caller that knows which observations
	// changed: values is the same complete vector Advance takes, dirty
	// lists the ids whose entry may differ from what the node holds (any
	// order, duplicates allowed), and every other entry must equal the
	// node's current value. Under that promise it is Advance(values) — same
	// node state, same range panic per installed value, same reports and
	// counters afterwards — at a cost proportional to len(dirty) instead of
	// n. An empty dirty list is a heartbeat: time advances, nothing moved.
	AdvanceDirty(values []int64, dirty []int)
	// EndStep closes the step's round accounting.
	EndStep()
}

// Engine combines the protocol-facing and scaffolding-facing interfaces.
type Engine interface {
	Cluster
	Inspector
}
