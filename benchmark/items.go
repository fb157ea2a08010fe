//go:build linux

package main

import (
	"fmt"
	"time"

	"topkmon/internal/lockstep"
	"topkmon/internal/rngx"
	"topkmon/internal/sketch"
	sitems "topkmon/internal/stream/items"
	"topkmon/topk"
	"topkmon/topk/items"
)

// items-zipf: 8 nodes observe 2048 unit events a step over 4096 items,
// one Space-Saving sketch of 128 counters per node, inner monitor over
// the 4096 item streams.
const (
	itemNodes    = 8
	itemUniverse = 4096
	itemK        = 8
	itemCapacity = 128
	itemPerStep  = 2048
	itemSteps    = 1000
	zipfS        = 1.1
	minRecall    = 0.9
)

// itemEvent is one unit-count arrival, packed so a pass's two million
// pre-generated events stay small.
type itemEvent struct {
	node, item uint16
}

type itemsRunner struct {
	warm      int    // steps committed in set-up
	steps     int    // timed steps
	seed      uint64 // item monitor seed
	eventSeed uint64
	cold      coldStarter
}

func newItemsRunner(env runEnv) (passRunner, error) {
	root := rngx.New(env.seed)
	return &itemsRunner{
		steps:     scaled(itemSteps, env.scale),
		seed:      root.ChildSeed(streamMonitor) | 1, // 0 would mean "default seed"
		eventSeed: root.ChildSeed(streamItems),
		cold:      coldStarter{seed: root.ChildSeed(streamColdStart)},
	}, nil
}

// genEvents draws the whole pass's events from the repo's zipf generator.
func (r *itemsRunner) genEvents() []itemEvent {
	g := sitems.NewZipf(itemNodes, itemUniverse, itemPerStep, zipfS, r.eventSeed)
	evs := make([]itemEvent, 0, r.steps*itemPerStep)
	buf := make([]sitems.Event, 0, itemPerStep)
	for s := 0; s < r.steps; s++ {
		buf = g.Next(s, buf[:0])
		for _, e := range buf {
			evs = append(evs, itemEvent{node: uint16(e.Node), item: uint16(e.Item)})
		}
	}
	return evs
}

// newMonitor builds the item monitor; with a tracer its inner monitor runs
// on the timing decorators.
func (r *itemsRunner) newMonitor(tr *tracer, seed uint64) (*items.Monitor, error) {
	e, err := topk.NewEpsilon(epsNum, epsDen)
	if err != nil {
		return nil, err
	}
	cfg := items.Config{
		Nodes: itemNodes, Items: itemUniverse, K: itemK, Epsilon: e,
		Sketch: items.SpaceSaving, Capacity: itemCapacity, Seed: seed,
	}
	if tr != nil {
		cfg.Monitor = tracedOptions(lockstep.New(itemUniverse, seed), tr, itemK, seed)
	}
	return items.New(cfg)
}

// itemsPass is what one drive of the events measured.
type itemsPass struct {
	setup, wall, cpu time.Duration
	lat              []time.Duration // one items.Step each
	cost             topk.Cost
	recall           float64
	evs              []itemEvent // the pass's events, for the cold starts and the sketch replay
}

// drive runs the events once: Observe each, Step once per itemPerStep.
func (r *itemsRunner) drive(tr *tracer) (*itemsPass, error) {
	p := &itemsPass{lat: make([]time.Duration, 0, r.steps)}
	t0 := time.Now()
	evs := r.genEvents()
	m, err := r.newMonitor(tr, r.seed)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	p.setup = time.Since(t0)
	p.evs = evs

	cpu0 := selfCPU()
	start := time.Now()
	for s := 0; s < r.steps; s++ {
		var span int32
		if tr != nil {
			tr.op = int32(s)
			span = tr.begin(spItemsObserve)
		}
		for _, e := range evs[s*itemPerStep : (s+1)*itemPerStep] {
			if err := m.Observe(int(e.node), int(e.item), 1); err != nil {
				return nil, err
			}
		}
		if tr != nil {
			tr.end(span)
			span = tr.begin(spItemsStep)
		}
		t := time.Now()
		err := m.Step()
		p.lat = append(p.lat, time.Since(t))
		if tr != nil {
			tr.end(span)
		}
		if err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(start)
	p.cpu = selfCPU() - cpu0

	if err := m.Check(); err != nil {
		return nil, fmt.Errorf("referee: %w", err)
	}
	p.cost = m.Cost()
	truth := sitems.NewTruth(itemUniverse)
	for _, e := range evs {
		truth.Observe(int(e.item), 1)
	}
	p.recall = truth.RecallAt(itemK, m.TopItems(nil))
	return p, nil
}

// coldStart is recovery_s for the item layer, which has no log either:
// build a fresh monitor, observe one step's events, Step, read the top
// items.
func (r *itemsRunner) coldStart(first []itemEvent) (float64, error) {
	return r.cold.median(func(seed uint64) error {
		m, err := r.newMonitor(nil, seed|1)
		if err != nil {
			return err
		}
		defer m.Close()
		for _, e := range first {
			if err := m.Observe(int(e.node), int(e.item), 1); err != nil {
				return err
			}
		}
		err = m.Step()
		m.TopItems(nil)
		return err
	})
}

// sketchTimes replays the events into benchmark-owned summaries of the
// kind the item layer uses, timing the three calls it makes.
func (r *itemsRunner) sketchTimes(evs []itemEvent) (observeNS, heavyUS, estimateNS float64) {
	per := make([]sketch.Summary, itemNodes)
	for i := range per {
		per[i] = sketch.NewSpaceSaving(itemCapacity)
	}
	heavy := make([]sketch.Counter, 0, itemCapacity)
	var observe, heavyT, estimate time.Duration
	var heavyCalls, estimateCalls int
	var sink int64
	for s := 0; s < r.steps; s++ {
		t := time.Now()
		for _, e := range evs[s*itemPerStep : (s+1)*itemPerStep] {
			per[e.node].Observe(uint64(e.item), 1)
		}
		observe += time.Since(t)
		for _, sk := range per {
			t = time.Now()
			heavy = sk.Heavy(itemCapacity, heavy[:0])
			heavyT += time.Since(t)
			heavyCalls++
			t = time.Now()
			for _, c := range heavy {
				est, _ := sk.Estimate(c.Item)
				sink += est
			}
			estimate += time.Since(t)
			estimateCalls += len(heavy)
		}
	}
	_ = sink
	return float64(observe.Nanoseconds()) / float64(len(evs)),
		us(heavyT) / float64(heavyCalls),
		float64(estimate.Nanoseconds()) / float64(max(estimateCalls, 1))
}

func (r *itemsRunner) pass(traced bool, out *passOut) error {
	out.attempted += r.steps
	events := float64(r.steps * itemPerStep)
	plain, err := r.drive(nil)
	if err != nil {
		return err
	}
	out.check(plain.recall >= minRecall, "recall@%d %.3f below %.1f", itemK, plain.recall, minRecall)
	if !traced {
		rec, err := r.coldStart(plain.evs[:itemPerStep])
		if err != nil {
			return err
		}
		out.s.add("setup_s", plain.setup.Seconds())
		out.s.add("updates_per_s", events/plain.wall.Seconds())
		out.s.add("latency_p50_us", durQuantileUS(plain.lat, 0.5))
		out.s.add("cpu_us_per_update", float64(plain.cpu.Microseconds())/events)
		out.s.add("msgs_per_update", float64(plain.cost.Messages)/events)
		out.s.add("recovery_s", rec)
		return nil
	}

	tr := newTracer(r.steps * 16)
	tp, err := r.drive(tr)
	if err != nil {
		return err
	}
	lt, err := selfTimes(tr.spans)
	if err != nil {
		return err
	}
	out.spans = tr.spans
	out.check(tp.cost == plain.cost, "traced cost %+v != untraced cost %+v", tp.cost, plain.cost)
	fsteps := float64(r.steps)
	observeNS, heavyUS, estimateNS := r.sketchTimes(tp.evs)

	addEngineLayers(out.s, lt, fsteps)
	addMsgSplit(out.s, tp.cost, int(events))
	out.s.add("sketch.observe.ns_per_event", observeNS)
	out.s.add("sketch.heavy.us_per_call", heavyUS)
	out.s.add("sketch.estimate.ns_per_call", estimateNS)
	out.s.add("items.observe.ns_per_event", float64(lt.total[spItemsObserve].Nanoseconds())/events)
	out.s.add("items.step.p50_us", durQuantileUS(durations(tr.spans, spItemsStep), 0.5))
	out.s.add("items.step.outer_us_per_step", us(lt.self[spItemsStep])/fsteps)
	out.s.add("items.inner.advance.us_per_step", us(lt.total[spAdvance])/fsteps)
	out.s.add("items.inner.protocol.us_per_step", us(lt.total[spHandleStep]+lt.total[spEndStep])/fsteps)
	out.s.add("items.recall_at_k", tp.recall)
	out.s.add("bench.trace_overhead_ratio", tp.wall.Seconds()/plain.wall.Seconds())
	out.s.add("bench.span_coverage_ratio", lt.coverage(tp.wall))
	return nil
}
