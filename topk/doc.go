// Package topk is the public, embeddable entry point of this module: a
// push-based server-side monitor that continuously knows an ε-approximate
// set of the k largest-valued nodes among n distributed streams, spending
// as few node↔server messages as possible (Mäcker, Malatyali, Meyer auf
// der Heide: "On Competitive Algorithms for Approximations of
// Top-k-Position Monitoring of Distributed Streams", IPPS 2016).
//
// Everything else in the module lives under internal/; applications import
// only this package:
//
//	m, err := topk.New(4, topk.MustEpsilon(1, 8),
//		topk.WithNodes(64),
//		topk.WithEngine(topk.Live),
//		topk.WithShards(4),
//		topk.WithSeed(7))
//	defer m.Close()
//
//	m.UpdateBatch(batch)        // one batch of pushes = one monitored time step
//	ids := m.TopK(buf)          // current ε-Top-k positions, zero-alloc
//	cost := m.Cost()            // messages / rounds / bits spent so far
//
// # Push-based ingest
//
// The paper's protocols are defined over synchronous time steps: at each
// step every node observes a new value, then server and nodes exchange
// messages until the output is valid again. This package inverts the
// simulation harness's generator-driven loop into a push API and batches
// pushes into engine steps:
//
//   - [Monitor.UpdateBatch] applies one batch of pushes as ONE time step
//     (nodes absent from the batch keep their previous value — the model's
//     "unchanged observation"). This is the bulk ingest path: one batch per
//     collection interval, whatever arrived.
//   - [Monitor.Update] stages a single push into the current batch. The
//     pending batch is committed automatically when the same node pushes
//     twice (a node observes one value per step) and explicitly by
//     [Monitor.Flush], which always closes a step — an empty Flush is a
//     heartbeat tick on which the monitor may go entirely quiet.
//
// Reads ([Monitor.TopK], [Monitor.Cost], [Monitor.Check]) reflect the last
// committed step; staged-but-unflushed pushes are not visible yet.
//
// # Engines, algorithms, correctness
//
// WithEngine selects the execution substrate: [Lockstep] (deterministic
// sequential, the default — cheapest and bit-reproducible) or [Live]
// (worker-sharded goroutines over channels, see WithShards). Both are the
// same server over different node executors, so message billing agrees by
// construction and the two are observably identical for equal seeds; the
// facade-equivalence tests prove a pushed run byte-identical to driving
// the engines directly.
//
// WithMonitor selects the paper's algorithm: the Theorem 5.8 controller
// [Approx] (default), the exact monitor [Exact] (Corollary 3.3; assumes
// pairwise-distinct values), [TopKProtocol] (Section 4), [Dense]
// (Section 5.2; ε-correct only in the dense regime it is designed for:
// outside it, it can publish an invalid output under fresh health),
// [HalfEps] (Corollary 5.9), and the [Naive] / [MidNaive] baselines.
//
// [Monitor.Check] recomputes the ground truth over the monitor's mirror of
// all pushed values and verifies the current output's ε-Top-k property —
// the referee the examples and the CLI run every step.
//
// # Performance
//
// The steady-state push path allocates nothing: Update, UpdateBatch, and
// TopK are 0 allocs/op on both engines (benchmark- and test-enforced),
// riding on the engines' zero-allocation step pipeline. [Monitor.Reset]
// rewinds monitor and engine to a fresh construction with a new seed while
// keeping all buffers and goroutines, so long-running embedders can run
// many sessions on one Monitor.
//
// The Reset contract is also the replay-recovery contract: a Monitor is a
// pure function of (config, seed, batch sequence), so persisting those
// inputs and re-driving them through Reset + UpdateBatch reconstructs the
// monitor byte for byte — outputs, every cost counter, fault coins.
// cmd/topkd's write-ahead batch log (internal/wal, topkd -data-dir) builds
// crash recovery on exactly this property, and [Monitor.ValidateBatch]
// exists for such journal-before-commit consumers: it runs UpdateBatch's
// full input validation without committing, so a batch is only journaled
// if its replay can never fail.
//
// [Monitor.Subscribe] delivers an [Event] whenever a committed step changed
// the top-k set — the hook for HTTP/gRPC frontends and reactive consumers
// ([Monitor.Unsubscribe] detaches one subscriber without closing the
// monitor, e.g. on client disconnect; cmd/topkd's SSE bridge is the
// reference consumer).
//
// # Faults and health
//
// The paper assumes reliable synchronous messaging. WithFaults drops that
// assumption deterministically: the engine is wrapped in a seed-driven
// fault injector (message drops, duplications, delayed filter assignments,
// scheduled node crashes, bounded unicast retries — every coin from a
// dedicated RNG stream, so chaotic runs replay byte-identically), and the
// monitor supervises every committed step. Outputs that fail the built-in
// referee, protocol failures, and detected node desyncs surface through
// [Monitor.Health] ([Fresh], [Recovering], [Degraded] + staleness age) and
// as degradation [Event]s on Subscribe, while the monitor heals itself with
// epoch resyncs under exponential backoff. The guarantee: after every
// committed step, either [Monitor.Check] passes or Health is not [Fresh] —
// the monitor never serves a wrong answer silently. [Cost] carries the
// fault bill (DroppedMsgs, DupMsgs, Retries, Resyncs, StaleSteps)
// separately from the model's message counters, which keep billing only
// delivered messages.
package topk
