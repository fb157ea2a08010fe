//go:build linux

package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/topk"
)

// All workloads monitor with ε = 1/8 and the default Approx algorithm.
const epsNum, epsDen = 1, 8

// A pass times recovery_s for the in-process workloads as the median of
// repeated cold starts: at least minColdStarts, and as many as fit in
// coldStartBudget, because a sub-millisecond rebuild needs dozens of
// samples to repeat and a 30 ms one cannot afford them.
const (
	minColdStarts   = 5
	coldStartBudget = 100 * time.Millisecond
)

// coldStarter hands every rebuild of a run its own monitor seed. How many
// messages (and microseconds) the randomised max-find of a first step
// takes varies by a fifth with the seed; a replacement monitor has no
// reason to reuse the dead one's, and drawing a fresh seed per rebuild
// makes the median an estimate of the typical cold start rather than of
// one seed's luck.
type coldStarter struct {
	seed uint64
}

// median runs rebuild repeatedly, each time with a fresh seed, and returns
// the median seconds.
func (c *coldStarter) median(rebuild func(seed uint64) error) (float64, error) {
	runtime.GC() // the pass's inputs are garbage by now; do not collect them mid-sample
	var times []float64
	for start := time.Now(); len(times) < minColdStarts || time.Since(start) < coldStartBudget; {
		c.seed++
		t := time.Now()
		if err := rebuild(c.seed); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

// embedSpec is an embedded-facade workload: one goroutine pushes the
// trace's batches into topk.Monitor.UpdateBatch, one committed step each.
type embedSpec struct {
	walk walkSpec
	k    int
	live bool // barrier engine with 2 shards instead of lockstep
}

var churnWalk = walkSpec{
	n: 1024, contenders: 32, period: 200, waveLo: 1e6, waveHi: 2e6,
	restLo: 1e5, restHi: 9e5, noise: 16, amp: 50, steps: 10000,
}

var (
	// The 8 leaders (period 0: static, never pushed) sit a clear ε above
	// the other 16376 nodes, so a ±50 move never violates a filter.
	embedQuietWide = embedSpec{k: 8, walk: walkSpec{
		n: 16384, contenders: 8, waveLo: 3e6, waveHi: 4e6,
		restLo: 1e6, restHi: 2e6, noise: 1, amp: 50, steps: 10000,
	}}
	embedChurn     = embedSpec{k: 8, walk: churnWalk}
	embedChurnLive = embedSpec{k: 8, walk: churnWalk, live: true}
)

const liveShards = 2

type embedRunner struct {
	spec    embedSpec
	seed    uint64 // monitor seed
	valSeed uint64
	// ref is the lockstep run of the same trace a live workload must equal
	// step for step (nil on lockstep workloads).
	ref  *embedPass
	cold coldStarter
}

func newEmbedRunner(spec embedSpec) func(runEnv) (passRunner, error) {
	return func(env runEnv) (passRunner, error) {
		spec.walk.steps = scaled(spec.walk.steps, env.scale)
		root := rngx.New(env.seed)
		r := &embedRunner{
			spec:    spec,
			seed:    root.ChildSeed(streamMonitor),
			valSeed: root.ChildSeed(streamValues),
			cold:    coldStarter{seed: root.ChildSeed(streamColdStart)},
		}
		if spec.live {
			ref, err := r.drive(driveMode{digest: true})
			if err != nil {
				return nil, fmt.Errorf("lockstep reference: %w", err)
			}
			r.ref = ref
		}
		return r, nil
	}
}

// driveMode selects how one drive of the trace is run.
type driveMode struct {
	tr     *tracer // non-nil: decorators injected, one root span per step
	live   bool
	digest bool // fold every step's TopK into an FNV-1a digest
	mem    bool // measure the monitor's heap and the loop's allocations
}

// embedPass is what one drive of the trace measured.
type embedPass struct {
	setup  time.Duration // input generation + construction + full-vector load
	wall   time.Duration // the timed loop
	cpu    time.Duration // driver user+sys over the timed loop
	lat    []time.Duration
	units  int // updates pushed, full-vector load included
	load   topk.Cost
	cost   topk.Cost
	epochs int64
	top    []int
	digest uint64
	final  []int64

	// traced / mem modes only
	active     []bool // step sent at least one message
	heapMB     float64
	allocs     uint64
	validateNS float64 // per update
	readNS     float64
	checkMS    float64
}

// newMonitor builds the workload's monitor. Untraced, the facade constructs
// its own engine; traced, the same engine and algorithm are built here,
// wrapped in the timing decorators and injected. It returns the monitor
// and a function that releases it.
func (r *embedRunner) newMonitor(m driveMode, seed uint64) (*topk.Monitor, func(), error) {
	e, err := topk.NewEpsilon(epsNum, epsDen)
	if err != nil {
		return nil, nil, err
	}
	n, k := r.spec.walk.n, r.spec.k
	if m.tr == nil {
		opts := []topk.Option{topk.WithNodes(n), topk.WithSeed(seed)}
		if m.live {
			opts = append(opts, topk.WithEngine(topk.Live), topk.WithShards(liveShards))
		}
		mon, err := topk.New(k, e, opts...)
		if err != nil {
			return nil, nil, err
		}
		return mon, func() { mon.Close() }, nil
	}
	var eng cluster.Engine
	stop := func() {}
	if m.live {
		lc := live.New(n, seed, live.WithShards(liveShards))
		eng, stop = lc, lc.Close
	} else {
		eng = lockstep.New(n, seed)
	}
	mon, err := topk.New(k, e, tracedOptions(eng, m.tr, k, seed)...)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return mon, func() { mon.Close(); stop() }, nil
}

// tracedOptions injects the timing decorators around eng and the Approx
// algorithm — the construction topk.New performs by default, rebuilt here
// so it can be wrapped.
func tracedOptions(eng cluster.Engine, tr *tracer, k int, seed uint64) []topk.Option {
	return []topk.Option{
		topk.WithClusterEngine(&tracedEngine{Engine: eng, tr: tr}),
		topk.WithSeed(seed),
		topk.WithMonitorFunc(func(cl cluster.Cluster) protocol.Monitor {
			return &tracedMonitor{Monitor: protocol.NewApprox(cl, k, eps.MustNew(epsNum, epsDen)), tr: tr}
		}),
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvInts folds ids into an FNV-1a digest, one 64-bit word per id.
func fnvInts(h uint64, ids []int) uint64 {
	for _, id := range ids {
		h = (h ^ uint64(id)) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // step separator
}

// drive runs the trace once: set-up, timed loop, referee, cold starts.
func (r *embedRunner) drive(m driveMode) (*embedPass, error) {
	p := &embedPass{digest: fnvOffset}
	t0 := time.Now()
	tr := genWalk(r.spec.walk, r.valSeed)
	var heap0 float64
	if m.mem {
		heap0 = heapMB()
	}
	mon, release, err := r.newMonitor(m, r.seed)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := mon.UpdateBatch(tr.initial); err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	if m.mem {
		p.heapMB = heapMB() - heap0
	}
	p.load = mon.Cost()
	p.final = tr.final
	p.units = len(tr.initial) + len(tr.batches)*r.spec.walk.perStep()
	p.lat = make([]time.Duration, len(tr.batches))
	p.top = make([]int, 0, r.spec.k)
	if m.tr != nil {
		m.tr.spans = m.tr.spans[:0] // the load is set-up, not a traced op
		p.active = make([]bool, len(tr.batches))
	}

	var allocs0 uint64
	if m.mem {
		allocs0 = mallocs()
	}
	cpu0 := selfCPU()
	start := time.Now()
	if m.tr != nil {
		msgs := p.load.Messages
		for i, b := range tr.batches {
			m.tr.op = int32(i)
			s := m.tr.begin(spUpdateBatch)
			err = mon.UpdateBatch(b)
			m.tr.end(s)
			if err != nil {
				return nil, err
			}
			now := mon.Cost().Messages
			p.active[i] = now != msgs
			msgs = now
			if m.digest {
				p.top = mon.TopK(p.top)
				p.digest = fnvInts(p.digest, p.top)
			}
		}
	} else {
		prev := start
		for i, b := range tr.batches {
			if err := mon.UpdateBatch(b); err != nil {
				return nil, err
			}
			if m.digest {
				p.top = mon.TopK(p.top)
				p.digest = fnvInts(p.digest, p.top)
			}
			now := time.Now()
			p.lat[i] = now.Sub(prev)
			prev = now
		}
	}
	p.wall = time.Since(start)
	p.cpu = selfCPU() - cpu0
	if m.mem {
		p.allocs = mallocs() - allocs0
	}
	if m.tr != nil {
		p.lat = durations(m.tr.spans, spUpdateBatch)
	}

	p.cost = mon.Cost()
	p.epochs = mon.Epochs()
	p.top = mon.TopK(p.top)
	if m.mem {
		t := time.Now()
		for _, b := range tr.batches {
			if err := mon.ValidateBatch(b); err != nil {
				return nil, err
			}
		}
		p.validateNS = float64(time.Since(t).Nanoseconds()) / float64(len(tr.batches)*r.spec.walk.perStep())
		t = time.Now()
		for range tr.batches {
			p.top = mon.TopK(p.top)
		}
		p.readNS = float64(time.Since(t).Nanoseconds()) / float64(len(tr.batches))
	}
	t := time.Now()
	if err := mon.Check(); err != nil {
		return nil, fmt.Errorf("referee: %w", err)
	}
	p.checkMS = float64(time.Since(t).Nanoseconds()) / 1e6
	return p, nil
}

// coldStart is recovery_s for an embedder, who has no log: build a fresh
// monitor, push the latest full vector, read the top-k.
func (r *embedRunner) coldStart(final []int64) (float64, error) {
	full := make([]topk.Update, len(final))
	for i, v := range final {
		full[i] = topk.Update{Node: i, Value: v}
	}
	top := make([]int, 0, r.spec.k)
	return r.cold.median(func(seed uint64) error {
		mon, release, err := r.newMonitor(driveMode{live: r.spec.live}, seed)
		if err != nil {
			return err
		}
		defer release()
		err = mon.UpdateBatch(full)
		top = mon.TopK(top)
		return err
	})
}

func (r *embedRunner) pass(traced bool, out *passOut) error {
	steps := r.spec.walk.steps
	out.attempted += steps
	plain, err := r.drive(driveMode{live: r.spec.live, mem: traced})
	if err != nil {
		return err
	}
	if r.ref != nil {
		out.check(plain.cost == r.ref.cost, "live cost %+v != lockstep cost %+v", plain.cost, r.ref.cost)
		out.check(slices.Equal(plain.top, r.ref.top), "live top-k %v != lockstep top-k %v", plain.top, r.ref.top)
	}
	fsteps := float64(steps)
	if !traced {
		rec, err := r.coldStart(plain.final)
		if err != nil {
			return err
		}
		out.s.add("setup_s", plain.setup.Seconds())
		out.s.add("updates_per_s", float64(steps*r.spec.walk.perStep())/plain.wall.Seconds())
		out.s.add("latency_p50_us", durQuantileUS(plain.lat, 0.5))
		out.s.add("cpu_us_per_update", float64(plain.cpu.Microseconds())/float64(steps*r.spec.walk.perStep()))
		out.s.add("msgs_per_update", float64(plain.cost.Messages)/float64(plain.units))
		out.s.add("recovery_s", rec)
		return nil
	}

	tr := newTracer(steps * 16)
	tp, err := r.drive(driveMode{tr: tr, live: r.spec.live, digest: true})
	if err != nil {
		return err
	}
	lt, err := selfTimes(tr.spans)
	if err != nil {
		return err
	}
	out.spans = tr.spans
	out.digests = append(out.digests, tp.digest)
	out.check(tp.cost == plain.cost, "traced cost %+v != untraced cost %+v", tp.cost, plain.cost)
	if r.ref != nil {
		out.check(tp.digest == r.ref.digest, "live per-step top-k digest %x != lockstep %x", tp.digest, r.ref.digest)
		out.s.add("cluster.live_over_lockstep_ratio", plain.wall.Seconds()/r.ref.wall.Seconds())
	}

	var quiet, active []time.Duration
	for i, d := range tp.lat {
		if tp.active[i] {
			active = append(active, d)
		} else {
			quiet = append(quiet, d)
		}
	}
	out.s.add("topk.update_batch.p50_us", durQuantileUS(tp.lat, 0.5))
	out.s.add("topk.update_batch.mean_us", us(lt.total[spUpdateBatch])/fsteps)
	out.s.add("topk.update_batch.self_us_per_step", us(lt.self[spUpdateBatch])/fsteps)
	out.s.add("topk.quiet_step.p50_us", durQuantileUS(quiet, 0.5))
	out.s.add("topk.active_step.p50_us", durQuantileUS(active, 0.5))
	out.s.add("topk.validate_batch.ns_per_update", plain.validateNS)
	out.s.add("topk.topk_read.ns", plain.readNS)
	out.s.add("topk.check.ms", plain.checkMS)
	out.s.add("topk.allocs_per_step", float64(plain.allocs)/fsteps)
	out.s.add("topk.heap_mb", plain.heapMB)
	addEngineLayers(out.s, lt, fsteps)
	out.s.add("cluster.index_fallbacks_per_step", float64(tp.cost.IndexFallbacks-tp.load.IndexFallbacks)/fsteps)
	out.s.add("protocol.epochs_per_kstep", 1000*float64(tp.epochs)/float64(tp.cost.Steps))
	out.s.add("protocol.active_step_ratio", float64(len(active))/fsteps)
	addMsgSplit(out.s, tp.cost, tp.units)
	out.s.add("bench.trace_overhead_ratio", tp.wall.Seconds()/plain.wall.Seconds())
	out.s.add("bench.span_coverage_ratio", lt.coverage(tp.wall))
	return nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// addEngineLayers records what the engine and monitor decorators timed, per
// step: Advance, EndStep, each primitive group, and the protocol's own time
// (HandleStep minus the engine calls it made).
func addEngineLayers(s samples, lt layerTimes, steps float64) {
	s.add("cluster.advance.us_per_step", us(lt.total[spAdvance])/steps)
	s.add("cluster.end_step.us_per_step", us(lt.total[spEndStep])/steps)
	for _, prim := range primitives {
		s.add("cluster."+prim.key+".us_per_step", us(lt.total[prim.span])/steps)
		s.add("cluster."+prim.key+".calls_per_step", float64(lt.calls[prim.span])/steps)
	}
	s.add("protocol.handle_step.self_us_per_step", us(lt.self[spHandleStep])/steps)
}

// addMsgSplit records the per-channel message rates; they sum to
// msgs_per_update, which uses the same denominator.
func addMsgSplit(s samples, c topk.Cost, units int) {
	u := float64(units)
	s.add("protocol.msgs_node_to_server_per_update", float64(c.NodeToServer)/u)
	s.add("protocol.msgs_unicast_per_update", float64(c.Unicasts)/u)
	s.add("protocol.msgs_broadcast_per_update", float64(c.Broadcasts)/u)
	s.add("protocol.max_rounds_per_step", float64(c.MaxRoundsPerStep))
}
