package topk

import (
	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/protocol"
)

// EngineKind selects the execution substrate hosting the n nodes.
type EngineKind int

const (
	// Lockstep is the deterministic sequential engine: nodes are plain
	// structs, rounds are loops. The default — cheapest per step,
	// bit-reproducible, and exactly the paper's synchronous model.
	Lockstep EngineKind = iota
	// Live is the concurrent engine: m worker goroutines (see WithShards)
	// each own a contiguous shard of nodes and communicate over channels.
	// A barrier round too small to repay waking them (a quiet step, a late
	// max-find round) runs on the calling goroutine; the engine sizes every
	// round itself and there is nothing to tune. Observably identical to
	// Lockstep for equal seeds.
	Live
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case Lockstep:
		return "lockstep"
	case Live:
		return "live"
	default:
		return "EngineKind(?)"
	}
}

// Algorithm selects which of the paper's monitoring protocols runs on the
// engine.
type Algorithm int

const (
	// Approx is the Theorem 5.8 controller (the default): DENSEPROTOCOL
	// inside dense phases, TOP-K-PROTOCOL otherwise — the paper's
	// best-of-both σ-dependent monitor.
	Approx Algorithm = iota
	// Exact is the exact monitor of Corollary 3.3 (ε is ignored; values
	// must be pairwise distinct, as the paper assumes via identifier
	// tie-breaking).
	Exact
	// TopKProtocol is the four-phase TOP-K-PROTOCOL of Section 4.
	TopKProtocol
	// Dense is DENSEPROTOCOL of Section 5.2; ε-correct in the dense regime
	// it is designed for (many nodes inside the ε-neighborhood). Run
	// alone, it opens a fresh DENSEPROTOCOL epoch wherever Approx would
	// hand over to the next epoch or to TOP-K-PROTOCOL. Once the regime
	// stops being dense (few nodes inside the ε-neighborhood of v_k) it
	// is not ε-correct: it can publish an output that fails
	// [Monitor.Check] while [Monitor.Health] reads Fresh. Use Approx,
	// which hands such epochs to TOP-K-PROTOCOL, wherever every answer
	// must be valid.
	Dense
	// HalfEps is the Corollary 5.9 monitor: runs at ε/2 to be competitive
	// against the ε/2-optimum while outputting valid ε-Top-k sets.
	HalfEps
	// Naive is the report-every-change baseline.
	Naive
	// MidNaive is the midpoint-probing exact baseline.
	MidNaive
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Approx:
		return "approx"
	case Exact:
		return "exact"
	case TopKProtocol:
		return "topk-protocol"
	case Dense:
		return "dense"
	case HalfEps:
		return "half-eps"
	case Naive:
		return "naive"
	case MidNaive:
		return "mid-naive"
	default:
		return "Algorithm(?)"
	}
}

// config collects the construction options of New.
type config struct {
	nodes  int
	engine EngineKind
	shards int
	algo   Algorithm
	seed   uint64

	// faults, when non-nil, wraps the engine in the deterministic fault
	// injector and arms the recovery supervisor (see WithFaults).
	faults *FaultPlan

	// Harness scaffolding (module-internal): a pre-built engine and/or a
	// custom monitor constructor injected by internal/sim and the tests.
	rawEngine cluster.Engine
	monitorFn func(cluster.Cluster) protocol.Monitor
}

// Option configures New.
type Option func(*config)

// WithNodes sets the number of monitored node streams n. Required unless an
// engine is injected; k must satisfy 1 ≤ k ≤ n.
func WithNodes(n int) Option {
	return func(c *config) { c.nodes = n }
}

// WithEngine selects the execution substrate (default Lockstep).
func WithEngine(k EngineKind) Option {
	return func(c *config) { c.engine = k }
}

// WithShards sets the Live engine's worker count m: each worker owns a
// contiguous shard of roughly n/m nodes and its value-bucket partition.
// m ≤ 0 (the default) means GOMAXPROCS; the shard count never affects
// outputs, counters, or coin flips, and it matters to speed only for the
// rounds large enough to be handed to the workers (tens of thousands of
// node visits: dense batches and whole-cluster broadcasts at large n).
// Ignored by the Lockstep engine.
func WithShards(m int) Option {
	return func(c *config) { c.shards = m }
}

// WithMonitor selects the monitoring algorithm (default Approx).
func WithMonitor(a Algorithm) Option {
	return func(c *config) { c.algo = a }
}

// WithSeed sets the root random seed; every run with equal seeds, pushes,
// and options replays bit for bit. The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithClusterEngine injects a pre-built engine instead of constructing one.
// It is harness scaffolding for the module's own internal/sim and test
// packages (the parameter type lives under internal/, so code outside this
// module cannot call it): the engine must be freshly constructed or Reset —
// all node values zero — because the Monitor mirrors values from that
// state, and it stays owned by the caller (Close will not stop it).
func WithClusterEngine(e cluster.Engine) Option {
	return func(c *config) { c.rawEngine = e }
}

// WithMonitorFunc injects a custom monitor constructor, overriding
// WithMonitor. Harness scaffolding like WithClusterEngine — internal/sim
// runs every experiment's monitor through the facade with it.
func WithMonitorFunc(fn func(cluster.Cluster) protocol.Monitor) Option {
	return func(c *config) { c.monitorFn = fn }
}

// newMonitorFn resolves the configured algorithm to a constructor.
func (c *config) newMonitorFn(k int, e eps.Eps) func(cluster.Cluster) protocol.Monitor {
	if c.monitorFn != nil {
		return c.monitorFn
	}
	switch c.algo {
	case Exact:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewExactMid(cl, k) }
	case TopKProtocol:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewTopKProto(cl, k, e) }
	case Dense:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewDense(cl, k, e) }
	case HalfEps:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewHalfEps(cl, k, e) }
	case Naive:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewNaive(cl, k) }
	case MidNaive:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewMidNaive(cl, k) }
	default:
		return func(cl cluster.Cluster) protocol.Monitor { return protocol.NewApprox(cl, k, e) }
	}
}
