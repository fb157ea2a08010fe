// Command topkmon runs a live ε-Top-k monitoring session against the
// public topk API: a local workload source pushes one batch of observations
// per tick into an embeddable topk.Monitor (lockstep or live engine, any of
// the paper's algorithms), every output is validated against the built-in
// referee, and the communication bill is reported as the stream evolves.
// An output that fails validation while Health reads fresh is printed as
// an INVALID OUTPUT line, and once every session has run the command
// exits with status 1.
//
// The command imports ONLY the public topk package — it is the reference
// consumer of the embeddable API (CI enforces that no internal/ package
// leaks into cmd/ or examples/).
//
// Usage:
//
//	topkmon [-n 32] [-k 4] [-eps 1/8] [-steps 2000] [-workload loads]
//	        [-monitor approx] [-seed 7] [-report 200] [-engine live]
//	        [-shards 0] [-repeat 1] [-faults spec]
//
// With -repeat R the session runs R times on ONE monitor, rewound between
// sessions with Monitor.Reset(seed+r) — each repetition is bit-identical to
// a fresh process started with that seed, at none of the construction cost
// (for the live engine: the worker goroutines are started once).
//
// With -faults the message layer between server and nodes is perturbed by
// the deterministic fault injector and the monitor's recovery supervisor is
// armed: outputs that fail validation are flagged through Health() instead
// of served silently, and the session summary reports the fault bill. The
// spec is a comma list of drop=P, dup=P, delay=P, retries=N, and
// crash=NODE@FROM:UNTIL (repeatable), e.g.
//
//	topkmon -faults drop=0.1,dup=0.05,crash=2@100:300,crash=5@500:700
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"topkmon/topk"
)

func main() {
	n := flag.Int("n", 32, "number of nodes")
	k := flag.Int("k", 4, "size of the monitored top set")
	epsStr := flag.String("eps", "1/8", "allowed error ε as a fraction p/q (0/1 = exact)")
	steps := flag.Int("steps", 2000, "time steps to run")
	workload := flag.String("workload", "loads", "workload: loads|walk|jumps|oscillator")
	monitor := flag.String("monitor", "approx", "algorithm: approx|topk|exact|dense|half-eps|naive|mid-naive")
	seed := flag.Uint64("seed", 7, "random seed")
	report := flag.Int("report", 200, "status line every this many steps")
	engine := flag.String("engine", "live", "engine: live (goroutines) | lockstep")
	shards := flag.Int("shards", 0,
		"worker shards for the live engine (each owns n/m nodes and its value-bucket partition); 0 = GOMAXPROCS. Output is bit-identical for every value")
	repeat := flag.Int("repeat", 1,
		"run the session this many times, reusing one monitor via Reset(seed+r) between runs")
	faultSpec := flag.String("faults", "",
		"deterministic fault injection: comma list of drop=P, dup=P, delay=P, retries=N, crash=NODE@FROM:UNTIL (repeatable)")
	flag.Parse()

	e, err := topk.ParseEpsilon(*epsStr)
	if err != nil {
		fail(err)
	}
	algo, err := topk.ParseAlgorithm(*monitor)
	if err != nil {
		fail(err)
	}
	engKind, err := topk.ParseEngine(*engine)
	if err != nil {
		fail(err)
	}

	plan, err := topk.ParseFaultPlan(*faultSpec)
	if err != nil {
		fail(err)
	}

	m, err := topk.New(*k, e,
		topk.WithNodes(*n), topk.WithSeed(*seed), topk.WithEngine(engKind),
		topk.WithShards(*shards), topk.WithMonitor(algo),
		topk.WithFaults(plan))
	if err != nil {
		fail(err)
	}
	defer m.Close()

	invalid := 0
	for r := 0; r < *repeat; r++ {
		sessionSeed := *seed + uint64(r)
		if r > 0 {
			// One monitor, many sessions: Reset rewinds engine and
			// algorithm to the state a fresh construction with sessionSeed
			// would have.
			if err := m.Reset(sessionSeed); err != nil {
				fail(err)
			}
		}
		gen, err := makeWorkload(*workload, *n, sessionSeed)
		if err != nil {
			fail(err)
		}
		if *repeat > 1 {
			fmt.Printf("=== session %d/%d (seed %d) ===\n", r+1, *repeat, sessionSeed)
		}
		fmt.Printf("topkmon: %s on %s, n=%d k=%d ε=%s engine=%s\n",
			m.AlgorithmName(), gen.name(), *n, *k, e, *engine)
		invalid += runSession(m, gen, *steps, *report, plan != nil)
	}
	if invalid > 0 {
		m.Close()
		os.Exit(1)
	}
}

// runSession pushes one batch per tick into the monitor, validating every
// output and printing the communication summary. Under -faults an invalid
// output the monitor itself flagged non-Fresh counts as degraded (the
// guarantee working); only unflagged failures count as invalid, and
// runSession returns their number.
func runSession(m *topk.Monitor, gen *workload, steps, report int, faulty bool) int {
	var invalid, degraded int
	n := m.N()
	vals := make([]int64, n)
	batch := make([]topk.Update, 0, n)
	topBuf := make([]int, 0, m.K())
	for t := 0; t < steps; t++ {
		gen.next(vals)
		batch = batch[:0]
		for i, v := range vals {
			batch = append(batch, topk.Update{Node: i, Value: v})
		}
		if err := m.UpdateBatch(batch); err != nil {
			fail(err)
		}
		if err := m.Check(); err != nil {
			if h := m.Health(); h.State != topk.Fresh {
				degraded++
			} else {
				invalid++
				fmt.Printf("step %6d: INVALID OUTPUT: %v\n", t, err)
			}
		}
		if report > 0 && (t+1)%report == 0 {
			c := m.Cost()
			topBuf = m.TopK(topBuf)
			fmt.Printf("step %6d: top-%d=%v  msgs=%d (%.3f/step)\n",
				t+1, m.K(), topBuf, c.Messages, float64(c.Messages)/float64(t+1))
			if faulty {
				h := m.Health()
				fmt.Printf("             health=%s stale-for=%d  dropped=%d dup=%d retries=%d resyncs=%d\n",
					h.State, h.StaleFor, c.DroppedMsgs, c.DupMsgs, c.Retries, c.Resyncs)
			}
		}
	}

	c := m.Cost()
	fmt.Printf("\nfinished %d steps; epochs=%d, invalid outputs=%d\n", steps, m.Epochs(), invalid)
	fmt.Printf("messages: total=%d  node→server=%d  unicast=%d  broadcast=%d\n",
		c.Messages, c.NodeToServer, c.Unicasts, c.Broadcasts)
	fmt.Printf("max rounds/step=%d  max message bits=%d\n", c.MaxRoundsPerStep, c.MaxMessageBits)
	fmt.Printf("engine work: index fallbacks (full scans)=%d (%.3f/step)\n",
		c.IndexFallbacks, float64(c.IndexFallbacks)/float64(steps))
	if faulty {
		h := m.Health()
		fmt.Printf("faults: dropped=%d dup=%d retries=%d resyncs=%d stale-steps=%d\n",
			c.DroppedMsgs, c.DupMsgs, c.Retries, c.Resyncs, c.StaleSteps)
		fmt.Printf("health: %s (stale for %d steps, degraded-and-flagged steps=%d)\n",
			h.State, h.StaleFor, degraded)
	}
	return invalid
}

// workload is a seeded local data source: it fills a value vector per tick.
// The CLI generates its own data (the module's workload generators are
// simulation scaffolding under internal/); all sources are deterministic
// per seed, so sessions replay bit for bit and the output is identical for
// every -shards value.
type workload struct {
	label string
	step  func(t int, vals []int64)
	t     int
}

func (w *workload) name() string { return w.label }
func (w *workload) next(vals []int64) {
	w.step(w.t, vals)
	w.t++
}

const maxVal = int64(1) << 20

func makeWorkload(name string, n int, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewSource(int64(seed + 100)))
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		if v > maxVal {
			return maxVal
		}
		return v
	}
	switch name {
	case "loads":
		// Per-node baseline, small jitter, occasional bursts with
		// geometric decay — web-server loads.
		base := make([]int64, n)
		burst := make([]int64, n)
		for i := range base {
			base[i] = 500 + rng.Int63n(1001)
		}
		return &workload{label: "loads", step: func(t int, vals []int64) {
			for i := range vals {
				if rng.Float64() < 0.01 {
					burst[i] += 2000 + rng.Int63n(4001)
				}
				burst[i] -= burst[i] / 4
				vals[i] = clamp(base[i] + burst[i] + rng.Int63n(81) - 40)
			}
		}}, nil
	case "walk":
		// Bounded random walk: smoothly drifting values, the friendly case
		// for filters.
		cur := make([]int64, n)
		for i := range cur {
			cur[i] = 5000 + rng.Int63n(10001)
		}
		return &workload{label: "walk", step: func(t int, vals []int64) {
			for i := range cur {
				if t > 0 {
					cur[i] = clamp(cur[i] + rng.Int63n(401) - 200)
				}
				vals[i] = cur[i]
			}
		}}, nil
	case "jumps":
		// Fresh uniform values every tick: the hostile regime where
		// filters barely help.
		return &workload{label: "jumps", step: func(t int, vals []int64) {
			for i := range vals {
				vals[i] = 100 + rng.Int63n(100000-99)
			}
		}}, nil
	case "oscillator":
		// A few clear leaders, many nodes oscillating around the k-th
		// value, the rest clearly below — the paper's noise scenario.
		top, low := 4, n/4
		dense := n - top - low
		if dense < 0 {
			dense = 0
		}
		return &workload{label: "oscillator", step: func(t int, vals []int64) {
			i := 0
			for j := 0; j < top && i < len(vals); j++ {
				vals[i] = clamp(100000 + rng.Int63n(401))
				i++
			}
			for j := 0; j < dense && i < len(vals); j++ {
				vals[i] = clamp(10000 - 400 + rng.Int63n(801))
				i++
			}
			for ; i < len(vals); i++ {
				vals[i] = clamp(100 + rng.Int63n(401))
			}
		}}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "topkmon: %v\n", err)
	os.Exit(2)
}
