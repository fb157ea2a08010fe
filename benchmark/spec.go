//go:build linux

package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root repeats name, unit, better and (end to end) bound; the
// smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd are the metrics a user of the system sees, same names on every
// workload. README.md gives each one's definition per workload, and why the
// bounds are as wide as they are (the machine's own minute-to-minute drift).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "updates_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_update", unit: "us", better: "lower", bound: 0.25},
	{name: "msgs_per_update", unit: "msgs", better: "lower", bound: 0.20},
	{name: "recovery_s", unit: "s", better: "lower", bound: 0.20},
}

// Primitive groups of the engine decorator, in span order.
var primitives = []struct {
	span spanName
	key  string
}{
	{spDetectViolation, "detect_violation"},
	{spSweep, "sweep"},
	{spCollect, "collect"},
	{spProbe, "probe"},
	{spSetFilter, "set_filter"},
	{spBroadcast, "broadcast"},
}

// perLayer are the traced pass's metrics, one module per prefix. A metric
// of a layer that is not on a workload's path reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const (
		embed   = "latency_p50_us, updates_per_s @ embed-*"
		churn   = "latency_p50_us, updates_per_s @ embed-churn*"
		volat   = "latency_p50_us, cpu_us_per_update, updates_per_s @ serve-volatile"
		durable = "latency_p50_us, updates_per_s @ serve-durable; nothing @ serve-volatile"
		recover = "recovery_s @ serve-durable"
		items   = "latency_p50_us, updates_per_s @ items-zipf"
		msgs    = "msgs_per_update everywhere (the three splits sum to it)"
		valid   = "nothing: validity of the other rows"
	)
	defs := []metricDef{
		{name: "topk.update_batch.p50_us", unit: "us", better: "lower", moves: embed},
		{name: "topk.update_batch.mean_us", unit: "us", better: "lower", moves: "updates_per_s @ embed-* (per-step layer times are shares of this mean)"},
		{name: "topk.update_batch.self_us_per_step", unit: "us", better: "lower", moves: embed},
		{name: "topk.quiet_step.p50_us", unit: "us", better: "lower", moves: embed},
		{name: "topk.active_step.p50_us", unit: "us", better: "lower", moves: churn},
		{name: "topk.validate_batch.ns_per_update", unit: "ns", better: "lower", moves: "cpu_us_per_update @ serve-*"},
		{name: "topk.topk_read.ns", unit: "ns", better: "lower", moves: "nothing gated (reads are 1 in 16 ops @ serve-*)"},
		{name: "topk.check.ms", unit: "ms", better: "lower", moves: "nothing gated (referee, outside the timed loop)"},
		{name: "topk.allocs_per_step", unit: "count", better: "lower", moves: "every workload via GC; must be 0"},
		{name: "topk.heap_mb", unit: "MB", better: "lower", moves: "nothing gated"},
		{name: "cluster.advance.us_per_step", unit: "us", better: "lower",
			moves: "latency_p50_us, updates_per_s @ embed-quiet-wide and items-zipf; flat @ embed-churn"},
		{name: "cluster.end_step.us_per_step", unit: "us", better: "lower", moves: embed},
	}
	for _, p := range primitives {
		defs = append(defs,
			metricDef{name: "cluster." + p.key + ".us_per_step", unit: "us", better: "lower", moves: churn},
			metricDef{name: "cluster." + p.key + ".calls_per_step", unit: "count", better: "lower", moves: churn})
	}
	return append(defs, []metricDef{
		{name: "cluster.index_fallbacks_per_step", unit: "count", better: "lower", moves: churn},
		{name: "cluster.live_over_lockstep_ratio", unit: "ratio", better: "lower", moves: "cpu_us_per_update, latency_p50_us @ embed-churn-live"},

		{name: "protocol.handle_step.self_us_per_step", unit: "us", better: "lower", moves: churn},
		{name: "protocol.epochs_per_kstep", unit: "count", better: "lower", moves: msgs},
		{name: "protocol.active_step_ratio", unit: "ratio", better: "lower", moves: msgs},
		{name: "protocol.msgs_node_to_server_per_update", unit: "msgs", better: "lower", moves: msgs},
		{name: "protocol.msgs_unicast_per_update", unit: "msgs", better: "lower", moves: msgs},
		{name: "protocol.msgs_broadcast_per_update", unit: "msgs", better: "lower", moves: msgs},
		{name: "protocol.max_rounds_per_step", unit: "count", better: "lower", moves: "nothing gated (model's polylog-rounds budget)"},

		{name: "serve.decode_batch.us_per_req", unit: "us", better: "lower", moves: volat},
		{name: "serve.commit_batch.us_per_req", unit: "us", better: "lower", moves: volat},
		{name: "serve.commit_batch.self_us_per_req", unit: "us", better: "lower", moves: volat},
		{name: "serve.handler.us_per_req", unit: "us", better: "lower", moves: volat},
		{name: "serve.handler.self_us_per_req", unit: "us", better: "lower", moves: volat},
		{name: "serve.loopback.us_per_req", unit: "us", better: "lower", moves: volat},
		{name: "serve.process_boundary.us_per_req", unit: "us", better: "lower",
			moves: "scheduler wake-up cost; no program change should be credited with moving it"},
		{name: "serve.bytes_in_per_req", unit: "B", better: "lower", moves: volat},
		{name: "serve.bytes_out_per_req", unit: "B", better: "lower", moves: volat},
		{name: "serve.read.p50_us", unit: "us", better: "lower", moves: "nothing gated (reads are 1 in 16 ops)"},
		{name: "serve.latency_p99_us", unit: "us", better: "lower", moves: "nothing gated (does not repeat within a tenth here)"},
		{name: "serve.latency_max_us", unit: "us", better: "lower", moves: "nothing gated"},
		{name: "serve.rss_mb", unit: "MB", better: "lower", moves: "nothing gated"},
		{name: "serve.recover.us_per_rec", unit: "us", better: "lower", moves: recover},

		{name: "wal.append_frame.ns_per_rec", unit: "ns", better: "lower", moves: durable},
		{name: "wal.append.us_per_rec", unit: "us", better: "lower", moves: durable},
		{name: "wal.sync.us_per_call", unit: "us", better: "lower", moves: durable},
		{name: "wal.bytes_per_rec", unit: "B", better: "lower", moves: durable},
		{name: "wal.log_mb", unit: "MB", better: "lower", moves: recover},
		{name: "wal.decode_prefix.us_per_rec", unit: "us", better: "lower", moves: recover},
		{name: "wal.open_existing.ms", unit: "ms", better: "lower", moves: recover},

		{name: "sketch.observe.ns_per_event", unit: "ns", better: "lower", moves: "updates_per_s @ items-zipf"},
		{name: "sketch.heavy.us_per_call", unit: "us", better: "lower", moves: items},
		{name: "sketch.estimate.ns_per_call", unit: "ns", better: "lower", moves: items},

		{name: "items.observe.ns_per_event", unit: "ns", better: "lower", moves: "updates_per_s @ items-zipf"},
		{name: "items.step.p50_us", unit: "us", better: "lower", moves: items},
		{name: "items.step.outer_us_per_step", unit: "us", better: "lower", moves: items},
		{name: "items.inner.advance.us_per_step", unit: "us", better: "lower", moves: items},
		{name: "items.inner.protocol.us_per_step", unit: "us", better: "lower", moves: items},
		{name: "items.recall_at_k", unit: "ratio", better: "higher", moves: "nothing gated (the run fails below 0.9)"},

		{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower", moves: valid},
		{name: "bench.span_coverage_ratio", unit: "ratio", better: "higher", moves: valid},
		{name: "bench.generator_cpu_share", unit: "ratio", better: "lower", moves: valid},
		{name: "bench.build_s", unit: "s", better: "lower", moves: valid},
		{name: "bench.error_rate", unit: "ratio", better: "lower", moves: "must be 0 everywhere"},
	}...)
}

// workloadDef is one named set of inputs; new binds it to a run's seed and
// scale.
type workloadDef struct {
	name string
	why  string
	new  func(env runEnv) (passRunner, error)
}

// passRunner is a workload bound to one run's seed and scale.
type passRunner interface {
	// pass runs the workload once — set-up, the timed loop, the
	// correctness checks — and adds one sample per metric to out: the
	// per-layer ones with traced set, otherwise the end-to-end ones. The
	// caller repeats passes until the run's seconds are used.
	pass(traced bool, out *passOut) error
}

var workloads = []workloadDef{
	{"embed-quiet-wide", "16384 nodes, one small move per step, top-8 far above the rest: the protocol is idle, so the O(n) Engine.Advance is the step; sparse Advance must show here and protocol work must not",
		newEmbedRunner(embedQuietWide)},
	{"embed-churn", "1024 nodes, 32 contenders on triangle waves trade top-8 places every few steps: protocol, sweeps, collects and filter updates do the work and Advance little",
		newEmbedRunner(embedChurn)},
	{"embed-churn-live", "the embed-churn trace through the barrier engine with 2 shards: same calls, messages and outputs as lockstep, first multi-core number, guards a shared shard core",
		newEmbedRunner(embedChurnLive)},
	{"serve-volatile", "child topkd without a data dir, 2 tenants, one closed-loop keep-alive client each, 16-update JSON batches: transport, decode and handler dominate and the commit is a few percent",
		newServeRunner(false)},
	{"serve-durable", "same traffic with -data-dir and -fsync always, then SIGKILL and restart: the WAL on the blocking path, then replayed; a WAL change shows here and must leave serve-volatile flat",
		newServeRunner(true)},
	{"items-zipf", "8 nodes x 4096 items, Space-Saving c=128, zipf 1.1, 2048 events a step: sketch Observe and items.Step split the time and nothing of serve or wal is touched",
		newItemsRunner},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
