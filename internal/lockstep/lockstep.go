// Package lockstep implements the cluster interface as a deterministic
// sequential simulation: nodes are plain structs, rounds are loops, and the
// only nondeterminism comes from explicitly seeded PRNGs. It is the primary
// substrate for unit tests, property tests, and the experiment harness,
// and is — by construction — exactly the synchronous unit-cost model of
// Section 2.
//
// An Engine is the one server, cluster.Server, over one nodecore.Shard of
// all n nodes, which it calls directly: every round's node work runs inline
// on the caller. The server bills and buffers; the Shard keeps the routing
// structures in step with every node mutation (its doc comment has the
// contract), so a Sweep or Collect visits only the nodes its structures
// say can match and a step's cost tracks its matchers instead of
// n × rounds. Routing is invisible to protocols: reports stay in id order,
// the server draws a sweep's sender ranks over the same matchers, and
// messages are counted identically — asserted byte-for-byte against the
// Shard's FullScan ablation by TestIndexedScanMatchesFullScan.
package lockstep

import (
	"topkmon/internal/cluster"
	"topkmon/internal/nodecore"
)

// Engine is a deterministic lockstep cluster of n nodes.
type Engine struct {
	cluster.Server
	sh *nodecore.Shard
}

// New returns an engine with n nodes, all values 0, all filters [0, ∞].
func New(n int, seed uint64) *Engine {
	if n < 1 {
		panic("lockstep: need at least one node")
	}
	sh := nodecore.NewShard(0, n)
	return &Engine{Server: cluster.NewServer(sh, n, seed), sh: sh}
}

// SetFullScan switches the Shard's FullScan ablation: every Sweep and
// Collect scans all n nodes instead of its routed candidates. Reset
// switches it off.
func (e *Engine) SetFullScan(on bool) { e.sh.FullScan = on }

// VisitedNodes returns the cumulative number of candidates Sweep,
// DetectViolation and Collect have scanned since construction or the last
// Reset (nodecore.Shard.Visited). Simulation scaffolding for measuring the
// value index's selectivity (experiment E12); it is not message accounting
// and not part of the cluster interfaces.
func (e *Engine) VisitedNodes() int64 { return e.sh.Visited() }
