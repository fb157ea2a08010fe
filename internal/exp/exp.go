// Package exp defines the reproduction experiments E1–E14, each mapping a
// theorem or claim of the paper to measured tables (the paper itself is
// purely theoretical, so what the tables reproduce are the bound shapes its
// theorems assert).
//
// Every monitor-driven experiment runs through sim.Run, which itself
// drives the public topk facade (push-batch ingest) — so the experiment
// suite continuously exercises the supported public API, not a private
// side door; the facade-equivalence tests prove the indirection
// byte-identical to direct engine use. The primitive-level experiments
// (E1, E2, E12) measure engine primitives directly by design.
//
// Experiments are deterministic given Options.Seed and scale down under
// Options.Quick so they double as benchmark bodies in bench_test.go.
// Independent trials and sweep points fan out across Options.Parallelism
// goroutines; every unit of work derives its randomness from its own index,
// never from execution order, so the tables are byte-identical for every
// worker count.
//
// Workers reuse engines instead of constructing one per trial: parMapWith
// gives each worker goroutine a persistent context (an engCtx caching a
// lockstep engine, rewound with Engine.Reset to each trial's index-derived
// seed — state-identical to a fresh construction, asserted by the Reset
// property tests). This cut E1's wall clock ≈ 4× and its allocations ≈ 80×
// while keeping every table byte-for-byte unchanged.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/sim"
	"topkmon/topk"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks sweeps and trial counts (CI/bench mode).
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Parallelism caps the worker goroutines running independent trials
	// and sweep points; 0 means runtime.GOMAXPROCS(0). Results are
	// bit-identical for every value.
	Parallelism int
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parMap computes fn(0..n-1) on up to o.workers() goroutines and returns the
// results in index order — the experiment harness's worker pool. fn must
// derive all randomness from its index (seeds keyed by the swept parameter
// or trial number), which makes the fan-out invisible in the output. With
// one worker (or n == 1) it degrades to the plain sequential loop.
func parMap[T any](o Options, n int, fn func(i int) T) []T {
	return parMapWith(o, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// parMapWith is parMap with reusable per-worker state: mk constructs one
// context per worker goroutine — typically an engine that fn resets between
// trials instead of constructing 400 fresh engines per table cell — and
// fn(ctx, i) computes unit i. fn must still derive all randomness from its
// index alone; the context may carry buffers and resettable engines, never
// sequence state, so results stay byte-identical for every worker count
// (asserted by TestParallelRunsAreDeterministic).
func parMapWith[C, T any](o Options, n int, mk func() C, fn func(ctx C, i int) T) []T {
	out := make([]T, n)
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		ctx := mk()
		for i := 0; i < n; i++ {
			out[i] = fn(ctx, i)
		}
		return out
	}
	var next atomic.Int64
	// A panicking unit (runOrPanic's "fail loudly") must reach the caller
	// as it does in the sequential loop, not kill the process from a
	// worker goroutine.
	var panicked any
	var panicOnce sync.Once
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			ctx := mk()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(ctx, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// engCtx is the per-worker engine cache for parMapWith: reset returns a
// lockstep engine with n nodes in the state lockstep.New(n, seed) would
// construct, reusing the previous engine whenever the node count matches.
type engCtx struct {
	eng *lockstep.Engine
}

func (c *engCtx) reset(n int, seed uint64) *lockstep.Engine {
	if c.eng == nil || c.eng.N() != n {
		c.eng = lockstep.New(n, seed)
		return c.eng
	}
	c.eng.Reset(seed)
	return c.eng
}

// Experiment binds a paper claim to a measurement procedure.
type Experiment struct {
	ID    string
	Title string
	// Claim cites the paper item whose bound shape the tables reproduce.
	Claim string
	Run   func(Options) []*metrics.Table
	// Verdict, when set, checks Claim against the tables Run built, one
	// Finding per bounded quantity.
	Verdict func(tables []*metrics.Table) []Finding
}

// All returns the experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		E1Existence(), E2MaxFind(), E3ExactCompetitive(), E4TopKProtocol(),
		E5LowerBound(), E6Dense(), E7HalfEps(), E8EpsilonSavings(),
		E9PhaseAblation(), E10Compliance(), E11SweepAblation(),
		E12Selectivity(), E13HeavyHitters(), E14Openings(),
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runOrPanic executes a simulation; experiment workloads are fixed, so a
// validation failure is a bug, not a data condition.
func runOrPanic(cfg sim.Config) sim.Report {
	if wrapEngine != nil {
		cfg.Engine = wrapEngine(cfg.Engine, cfg.Gen.N(), cfg.Seed)
	}
	rep, err := sim.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return rep
}

// wrapEngine, when set, replaces the engine of every run runOrPanic
// starts with what it returns for the run's engine (nil for sim.Run's
// default), node count and seed. The tests set it to check every epoch
// opening of the monitor-driven experiments on both engines; it must
// leave each run as it was and be safe for concurrent use.
var wrapEngine func(e cluster.Engine, n int, seed uint64) cluster.Engine

// mkMonitor builds the named monitor; shared across experiments. The
// names are topk.ParseAlgorithm's, the E5 table prints them.
func mkMonitor(name string, k int, e eps.Eps) func(cluster.Cluster) protocol.Monitor {
	a, err := topk.ParseAlgorithm(name)
	if err != nil {
		panic("exp: " + err.Error())
	}
	return func(c cluster.Cluster) protocol.Monitor { return a.NewMonitor(c, k, e) }
}

func perEpoch(total int64, epochs int64) float64 {
	if epochs < 1 {
		epochs = 1
	}
	return float64(total) / float64(epochs)
}
