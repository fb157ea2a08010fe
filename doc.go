// Package topkmon is a complete Go implementation of "On Competitive
// Algorithms for Approximations of Top-k-Position Monitoring of Distributed
// Streams" (Mäcker, Malatyali, Meyer auf der Heide, 2016).
//
// n distributed nodes each observe a private integer stream; a server must
// continuously know an ε-approximate set of the k nodes holding the largest
// values while spending as few messages as possible. The implementation
// covers every protocol the paper defines — the EXISTENCE sweep (Lemma 3.1),
// maximum computation (Lemma 2.6), the exact monitor (Corollary 3.3),
// TOP-K-PROTOCOL with its four phases (Section 4), DENSEPROTOCOL and
// SUBPROTOCOL (Section 5.2), the Theorem 5.8 controller, and the
// Corollary 5.9 half-error monitor — plus the offline optimal adversary the
// competitive analyses compare against, the Theorem 5.1 lower-bound
// adversary, and a benchmark harness (E1–E14) that reproduces the bound
// shape of every theorem.
//
// Layout:
//
//	topk                the PUBLIC embeddable API: push-based Monitor facade
//	                    over both engines — the single supported entry point
//	topk/items          PUBLIC item-monitoring layer: per-node streaming
//	                    summaries feed the monitor so it tracks top-k ITEMS
//	                    (heavy hitters) across nodes
//	internal/sketch     streaming summaries (Space-Saving, and Misra-Gries
//	                    as a view of it) behind one Summary interface;
//	                    allocation-free Observe, Reset replay
//	internal/protocol   the paper's algorithms (the core contribution)
//	internal/cluster    the engine contract, and cluster.Server: the
//	                    server side written once (billing, buffers, the
//	                    EXISTENCE loop and its sender draws) over a node
//	                    side, cluster.Nodes
//	internal/lockstep   deterministic engine: the Server over one Shard
//	internal/live       sharded concurrent engine: the Server over m
//	                    Shards on worker goroutines (bit-identical)
//	internal/nodecore   node logic and nodecore.Shard, the one writer of
//	                    node state, which both engines hold
//	internal/vindex     value-bucket index + violator set under the Shard
//	internal/offline    the offline optimum OPT (greedy segmentation)
//	internal/oracle     ground truth + output validation
//	internal/stream     workloads and adaptive adversaries;
//	                    stream/items: item-granularity traces (zipfian,
//	                    bursty, adversarial churn) + the recall@k evaluator
//	internal/sim        run harness (drives runs through topk);
//	                    internal/exp: experiments E1–E14
//	internal/serve      multi-tenant HTTP frontend (tenant pool, handlers,
//	                    SSE bridge, durable commit path)
//	internal/wal        per-tenant write-ahead batch log (CRC-framed records,
//	                    torn-tail tolerant decode, snapshot sidecars) behind
//	                    topkd -data-dir
//	internal/tools      internal CLI: tools/bench (experiment tables)
//	benchmark           the repository benchmark (`go run ./benchmark`): six
//	                    workloads end to end, a child topkd included
//	cmd/topkmon         live monitoring CLI
//	cmd/topkd           multi-tenant HTTP ingest daemon over internal/serve
//	examples/           six runnable scenarios
//
// Applications embed the topk package, and cmd/ and examples/ are its
// reference consumers; what each package may import is written down once,
// in importRules (topk/boundary_test.go). The served path stands on the
// facade and inherits its guarantees: TestServeEquivalence proves it
// byte-identical to direct embedding, and TestRecoveryEquivalence that a
// crash-recovered tenant is byte-identical to an uninterrupted one.
//
// # Performance
//
// The simulation hot path is allocation-free in steady state on BOTH
// engines, enforced by the benchmarks and tests (BenchmarkMonitorStep/*,
// BenchmarkLiveStep/* + TestLiveStepAllocs, BenchmarkOracle, and the
// primitive micro-benchmarks all report 0 allocs/op):
//
//   - The oracle exposes ComputeInto with a reusable Scratch (persistent
//     order/neighborhood/validation buffers and a packed-key index sort);
//     Compute remains as an allocating convenience wrapper. sim.Run,
//     offline.SigmaMax, and cmd/topkmon hold one Scratch per run.
//   - The one server (cluster.Server) reuses its sweep buffer and
//     double-buffers Collect results; see the ownership contract on
//     cluster.Cluster. A Collect is a sweep's round 0 in which every
//     matcher sends, so both engines evaluate and price a predicate on one
//     path (nodecore.Shard.Resolve, ResolveSize). Inspector
//     has FiltersInto for per-step filter reads into caller scratch.
//   - A committed step costs its dirty set, not n: the facade lists the
//     nodes a batch staged and hands the engine that delta
//     (cluster.Inspector.AdvanceDirty), which installs only those nodes —
//     value, bucket index, violator set — and on the live engine stages
//     work only for the shards that own one (BenchmarkSparseStep: flat
//     from n=1024 to n=131072). The dense Advance is the same install over
//     every node, for harnesses that hold full vectors.
//   - Both engines keep their nodes in nodecore.Shard and route
//     Sweep/Collect through its structures: a
//     value-bucket index (updated at each install of a node's value) for
//     the predicate's wire.Pred.Bounds interval, the violator set (a bit
//     per row and a two-group vindex.Groups, rechecked at every change of
//     a value or filter) for the
//     violation predicate, the max-find active list (edited by the three
//     MaxFind* broadcasts) for the max-find predicate — so scan cost tracks
//     the matcher count σ rather than n (BenchmarkSweepSelectivity,
//     experiment E12), with a full scan left for tag
//     predicates and domain-covering intervals. A sweep resolves its
//     matchers once, and the server draws each round's senders as ranks
//     over them, so a round costs its senders, not its matchers
//     (BenchmarkEpochOpen, BenchmarkFindMax). Routing is observably
//     invisible — byte-identical reports, counters, and coin flips
//     (TestIndexedScanMatchesFullScan,
//     TestConformanceSweepCoinsMatchPerRoundLoop).
//   - The live engine runs m worker shards (default GOMAXPROCS; see
//     live.WithShards), each owning a contiguous range of nodes and its
//     bucket partition. Each call completes at the nodes before it returns;
//     unicasts, max-find raises and exclusions, and every report read
//     (Probe, and a sweep's or Collect's senders) run on the caller, and a
//     sweep nobody matches ends after its first round, with no
//     steady-state allocation. The engine prices each of its other calls
//     in node visits and runs the ones too small to repay a goroutine
//     wake-up on the caller, so a quiet step wakes nobody
//     (BenchmarkLiveGrain has the crossover). See the internal/live
//     package docs for the dispatch.
//   - Protocols reuse broadcast FilterRules (engines apply rules before
//     returning) and their set/output scratch buffers.
//   - offline.Solve reuses envelope and solver buffers and materialises a
//     witness only when a segment closes.
//   - The public topk facade adds nothing on top: Update/UpdateBatch (a
//     full pushed time step), TopK, Cost, and Check are 0 allocs/op in
//     steady state on both engines (TestFacadeStepAllocs; tracked by
//     BenchmarkFacadePush in the root suite and topk's own benchmarks),
//     and a facade-driven run is byte-identical to driving the engines
//     directly (TestFacadeEquivalence).
//
// Engines additionally support Reset(seed): a rewind to the exact state a
// fresh construction with that seed would produce (byte-identical traces,
// asserted by the Reset property tests). The experiment harness reuses one
// engine per worker across all trials of a table cell, and cmd/topkmon
// -repeat reuses one live engine across whole sessions.
//
// Benchmarks: `go run ./benchmark` is the end-to-end number (six
// workloads, correctness checked every pass; `make smoke` is its
// one-second form), `make bench` (= `go test -bench=. -benchmem` at the
// repo root) the micro-benchmarks in benchstat's format; see BENCH.md.
//
// The experiment harness fans independent trials and sweep points across
// exp.Options.Parallelism goroutines (internal/tools/bench flag -parallel;
// every `go test -bench` run is stamped with a bench-env line recording
// GOMAXPROCS, NumCPU, and the live engine's default shard count). Every unit
// of work derives its seed from its own index — never from execution
// order — so tables are byte-identical for every worker count, asserted by
// TestParallelRunsAreDeterministic.
//
// See ARCHITECTURE.md for the paper-section → package map and the engine
// dataflow. This file's package exists to carry the module-level
// documentation and the root benchmark suite (bench_test.go), which
// regenerates every experiment.
package topkmon
