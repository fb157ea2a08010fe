// Package sim drives complete monitoring runs: a workload generator feeds
// the public topk facade (which batches each step's values into one engine
// step — the very ingest path embedders use), the oracle validates every
// output, and the offline package prices the adversary's optimum on the
// recorded trace. The resulting Report carries everything the experiment
// harness tabulates.
//
// Running through the facade instead of calling the engine directly is
// deliberate: every experiment and property test in this repository then
// exercises the public API, and the facade-equivalence tests prove the
// indirection byte-identical to direct engine use. The engine itself stays
// injected (Config.Engine) and visible to sim for the pieces that are
// simulation scaffolding, not ingest: the Inspector's filter read for
// adaptive adversaries and the Report's copy of its Counters.
package sim

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/offline"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/topk"
)

// Validate selects the per-step output check.
type Validate int

const (
	// ValidateEps checks the ε-Top-k properties each step.
	ValidateEps Validate = iota
	// ValidateExact checks output == exact top-k each step.
	ValidateExact
)

// Config describes one run.
type Config struct {
	K     int
	Eps   eps.Eps
	Steps int
	Seed  uint64

	// Gen supplies the streams; adaptive generators see filters/output.
	Gen stream.Generator
	// NewMonitor builds the algorithm under test on the engine.
	NewMonitor func(c cluster.Cluster) protocol.Monitor

	Validate Validate

	// ComputeOPT solves the offline optimum on the recorded trace with
	// OPTEps (which may differ from Eps, e.g. ε/2 for Corollary 5.9).
	ComputeOPT bool
	OPTEps     eps.Eps

	// Engine overrides the default lockstep engine (the live engine's
	// integration tests inject theirs; the experiment harness injects
	// per-worker engines rewound with Engine.Reset(Seed), which is
	// state-identical to the fresh construction Run would perform).
	// Run uses the engine as handed over — callers reusing one engine
	// across runs are responsible for the Reset between them.
	Engine cluster.Engine
}

// Report summarises one run.
type Report struct {
	Monitor  string
	Workload string
	N        int
	K        int
	Eps      eps.Eps
	Steps    int

	Messages metrics.Counters
	Epochs   int64

	SigmaMax     int
	OPTBreaks    int
	OPTRealistic int64

	// RatioLB is messages / max(1, OPT breaks): the empirical competitive
	// ratio against the break lower bound.
	RatioLB float64
}

// Run executes the configured simulation. It returns an error on the first
// invalid output (with full step context) — validation is the reproduction's
// correctness instrument, so it fails loudly.
func Run(cfg Config) (Report, error) {
	if cfg.Gen == nil || cfg.NewMonitor == nil {
		return Report{}, fmt.Errorf("sim: Gen and NewMonitor are required")
	}
	if cfg.Steps < 1 {
		return Report{}, fmt.Errorf("sim: need at least one step")
	}
	eng := cfg.Engine
	if eng == nil {
		eng = lockstep.New(cfg.Gen.N(), cfg.Seed)
	}
	// The run goes through the public facade: each generator step is pushed
	// as one UpdateBatch, which performs the exact Advance → Start /
	// HandleStep → EndStep sequence this loop used to issue directly (the
	// facade-equivalence tests pin the byte-identity).
	m, err := topk.New(cfg.K, topk.WrapEps(cfg.Eps),
		topk.WithClusterEngine(eng), topk.WithMonitorFunc(cfg.NewMonitor))
	if err != nil {
		return Report{}, fmt.Errorf("sim: %w", err)
	}
	defer m.Close()

	rep := Report{
		Monitor:  m.AlgorithmName(),
		Workload: cfg.Gen.Name(),
		N:        cfg.Gen.N(),
		K:        cfg.K,
		Eps:      cfg.Eps,
		Steps:    cfg.Steps,
	}
	adaptive, _ := cfg.Gen.(stream.Adaptive)

	// The recorded trace is only needed for offline pricing; skipping it
	// keeps pure monitoring runs free of per-step retention.
	var trace [][]int64
	if cfg.ComputeOPT {
		trace = make([][]int64, 0, cfg.Steps)
	}

	// Per-step scratch, reused across all T steps: the oracle buffers, the
	// adaptive-adversary filter snapshot, the push batch, and the output
	// buffer the facade's TopK fills.
	var sc oracle.Scratch
	var filterBuf []filter.Interval
	batch := make([]topk.Update, 0, cfg.Gen.N())
	var outBuf []int

	for t := 0; t < cfg.Steps; t++ {
		if adaptive != nil {
			filterBuf = eng.FiltersInto(filterBuf)
			outBuf = m.TopK(outBuf)
			adaptive.ObserveFilters(filterBuf, outBuf)
		}
		vals := cfg.Gen.Next(t)
		if cfg.ComputeOPT {
			trace = append(trace, vals)
		}

		batch = batch[:0]
		for i, v := range vals {
			batch = append(batch, topk.Update{Node: i, Value: v})
		}
		if err := m.UpdateBatch(batch); err != nil {
			return rep, fmt.Errorf("sim: step %d: %w", t, err)
		}

		truth := oracle.ComputeInto(&sc, vals, cfg.K, cfg.Eps)
		if truth.Sigma > rep.SigmaMax {
			rep.SigmaMax = truth.Sigma
		}
		outBuf = m.TopK(outBuf)
		if cfg.Validate == ValidateExact {
			err = truth.ValidateExact(outBuf)
		} else {
			err = truth.ValidateEps(outBuf)
		}
		if err != nil {
			return rep, fmt.Errorf("sim: step %d, monitor %s on %s: %w",
				t, rep.Monitor, rep.Workload, err)
		}
	}

	rep.Messages = *eng.Counters()
	rep.Epochs = m.Epochs()

	if cfg.ComputeOPT {
		optEps := cfg.OPTEps
		inst, err := offline.NewInstance(trace, cfg.K, optEps)
		if err != nil {
			return rep, fmt.Errorf("sim: offline instance: %w", err)
		}
		res := inst.Solve()
		rep.OPTBreaks = res.Breaks
		rep.OPTRealistic = res.Realistic
		denom := float64(res.Breaks)
		if denom < 1 {
			denom = 1
		}
		rep.RatioLB = float64(rep.Messages.Total()) / denom
	}
	return rep, nil
}
