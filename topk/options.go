package topk

import (
	"fmt"

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

// algorithms is the one table of the algorithms, indexed by Algorithm:
// String, ParseAlgorithm, New's precondition check and NewMonitor all read
// it. kBelowN and posEps are the constructor's preconditions beyond
// 1 ≤ k ≤ n: k < n, and ε > 0.
var algorithms = [...]struct {
	name            string
	kBelowN, posEps bool
	new             func(cluster.Cluster, int, eps.Eps) protocol.Monitor
}{
	Approx:       {"approx", true, true, func(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor { return protocol.NewApprox(c, k, e) }},
	Exact:        {"exact", true, false, func(c cluster.Cluster, k int, _ eps.Eps) protocol.Monitor { return protocol.NewExactMid(c, k) }},
	TopKProtocol: {"topk-protocol", true, false, func(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor { return protocol.NewTopKProto(c, k, e) }},
	Dense:        {"dense", true, true, func(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor { return protocol.NewDense(c, k, e) }},
	HalfEps:      {"half-eps", true, true, func(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor { return protocol.NewHalfEps(c, k, e) }},
	Naive:        {"naive", false, false, func(c cluster.Cluster, k int, _ eps.Eps) protocol.Monitor { return protocol.NewNaive(c, k) }},
	MidNaive:     {"mid-naive", true, false, func(c cluster.Cluster, k int, _ eps.Eps) protocol.Monitor { return protocol.NewMidNaive(c, k) }},
}

// valid reports whether a names a row of the algorithm table.
func (a Algorithm) valid() bool { return a >= 0 && int(a) < len(algorithms) }

// check returns the error for a k of n (1 ≤ k ≤ n) and an ε that a's
// constructor would panic on, or nil.
func (a Algorithm) check(k, n int, e eps.Eps) error {
	row := algorithms[a]
	if row.kBelowN && k == n {
		return fmt.Errorf("topk: %s needs k < n, got k = n = %d", row.name, n)
	}
	if row.posEps && e.IsZero() {
		return fmt.Errorf("topk: %s needs ε > 0 (exact solves ε = 0)", row.name)
	}
	return nil
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if !a.valid() {
		return "Algorithm(?)"
	}
	return algorithms[a].name
}

// NewMonitor builds algorithm a on c, as WithMonitor(a) does inside New; a
// must be one of the constants above. Harness scaffolding like
// WithMonitorFunc (its parameter types live under internal/, so code
// outside this module cannot call it): internal/exp, internal/chaintest
// and the module's tests and benchmarks build their direct runs with it.
func (a Algorithm) NewMonitor(c cluster.Cluster, k int, e eps.Eps) protocol.Monitor {
	return algorithms[a].new(c, k, e)
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
