// Package live implements the cluster interface with genuinely concurrent
// workers communicating over channels — the protocols running against a
// "distributed" cluster rather than a sequential loop.
//
// # Worker shards
//
// The engine runs m ≪ n worker goroutines (m defaults to GOMAXPROCS,
// configurable with WithShards), each owning a contiguous shard of roughly
// n/m nodes. Model nodes are thereby decoupled from OS-level concurrency: a
// directive that used to wake n goroutines now wakes at most m workers, each
// of which executes the directive over its own nodes sequentially — the fix
// for the n = 10⁴ step cost where every quiet step paid n channel wake-ups
// per barrier round — and a barrier round too small to repay even those m
// wake-ups runs on the server's goroutine (see "Batched directives"). One
// goroutine per node is the m = n special case.
//
// Each shard is a nodecore.Shard: the nodes of its id range and the routing
// structures over them, kept in step by the Shard's own mutators (its doc
// comment has the contract), so every directive that changes a node is one
// Shard call. A Collect and round 0 of an EXISTENCE sweep route their
// predicate through those structures and fall back to the full shard scan
// only for tag predicates or domain-covering intervals. Server-side work
// per response-bearing round is O(m + matches) — each shard's executor
// publishes its matches into the shard's report list, which the server
// concatenates in shard order — not O(n).
//
// # Sweeps
//
// A sweep's round 0 addresses every shard: each resolves its matchers, keeps
// the list for the later rounds, and draws the round's coins over it. The
// matcher counts come back with the round's reports. When no shard holds a
// matcher the sweep is silent, and the server bills the remaining γ rounds
// and returns — a quiet violation sweep is one barrier, not γ+1. Otherwise
// each later round addresses only the shards that hold a matcher and they
// draw over their kept lists; nothing re-evaluates a predicate.
//
// # Batched directives
//
// The server does not send one channel message per node per directive.
// Instead it appends directives to a pending batch and flushes the batch as
// one barrier round: every shard the batch addresses executes the directives
// meant for it in order (exec, the one batch executor) and publishes replies
// (per-shard report lists for Collect/sweep rounds; one reply slot for a
// Probe). Directives that need no answer (Advance, BroadcastRule,
// SetFilter, SetTagFilter, MaxFind*, Reset) are deferred — they ride along
// with the next response-bearing flush — so a typical time step pays one
// barrier for Advance + the first sweep round combined instead of one per
// directive. Per-node execution order equals call order, so deferral is
// semantically invisible.
//
// Who executes a flush depends on its size. While directives are pushed the
// server keeps the batch's work in node visits: one per staged observation,
// one per unicast, n for a whole-cluster broadcast (BroadcastRule,
// MaxFindInit, Reset) or an unroutable predicate, the shard's scan
// size for a routed Collect or a sweep's round 0, the kept matcher lists'
// lengths for a later round, the active lists' for MaxFindRaise. Below
// parallelGrain — about what one barrier costs, in visits — the server
// runs exec itself, shard after shard in ascending order, and no goroutine
// is woken; at or above it every addressed worker gets one signal, runs exec
// over its own shard beside the others, and decrements an atomic countdown
// whose last holder wakes the server. The paper's rounds are synchronous and
// the barrier tokens have no model cost, so this is scheduling only: a quiet
// step or a late max-find round over a few hundred nodes is not worth two
// goroutine hand-offs, a dense Advance or a MaxFindInit at n = 10⁵ is. The
// batch that carries Close's stop directive always goes to the workers.
//
// The lengths priced above are shard-owned state. The server may read them
// between flushes because every worker is then parked: it was either never
// signalled or has passed the countdown behind the done receive that ended
// the last worker-run flush, and it touches nothing until its next signal.
// For the same reason the server may run exec on any shard between two
// worker-run flushes, and Node and FiltersInto may read the nodes after a
// flush; the next signal a worker receives orders those writes before its
// reads.
//
// The batch, the report lists, the probe slot, and the slices returned
// by Collect/Sweep are all engine-owned and reused, mirroring the lockstep
// engine's buffers: the steady state allocates nothing under either dispatch
// (asserted by TestLiveStepAllocs and tracked by BenchmarkLiveStep).
// Report-slice ownership follows the cluster.Cluster contract — a Collect
// result survives exactly one further Collect, a Sweep result only until the
// next Sweep.
//
// # Semantics
//
// Semantics match the lockstep engine exactly: a flush is a synchronous
// round (the barrier realises the model's rounds; barrier tokens are
// simulation scaffolding and carry no message cost). Shards visit their
// candidate nodes in ascending id order and cover ascending id ranges, so
// concatenated reports are in id order; node-side randomness is consumed
// only by matching nodes, exactly as in lockstep. Both dispatches run the
// same exec over the same disjoint shards, so which one ran a flush shows in
// nothing but time. A live run with the same seed therefore reproduces the
// lockstep run's counters, outputs and every node's RNG state bit for bit —
// for every shard count and on either side of the grain — asserted by the
// cross-engine equivalence tests up to n = 10⁴, the sharded conformance and
// Reset suites (each also with every flush forced through the workers), and
// TestMixedDispatch.
//
// Two white-box counters say what a run cost the engine, not the model:
// Flushes counts barrier rounds whoever executed them, Wakes the worker
// wake-ups paid for them (none for a caller-run flush).
package live

import (
	"runtime"
	"sync"
	"sync/atomic"

	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

type dirKind uint8

const (
	dirAdvance   dirKind = iota // observations Cluster.adv[lo:hi], all on target's shard
	dirApplyRule                // rule at Cluster.rules[ruleIdx]
	dirSetFilter
	dirSetTagFilter
	dirProbe
	dirCollect
	dirExistRound
	dirMaxInit
	dirMaxRaise
	dirMaxExclude
	dirReset
	dirStop
)

// Directive targets that are not a node id: allNodes addresses every
// worker, sweepers every worker whose shard holds a matcher of the running
// sweep (rounds > 0 of Sweep).
const (
	allNodes = -1
	sweepers = -2
)

type directive struct {
	kind    dirKind
	target  int // node id, or allNodes
	value   int64
	ruleIdx int
	iv      filter.Interval
	tag     wire.Tag
	pred    wire.Pred
	round   int
	prob    float64 // dirExistRound: the round's send probability
	reset   bool
	holder  int
	best    int64
	seed    uint64
	lo, hi  int // dirAdvance: the directive's range of Cluster.adv
}

// observation is one staged (node, value) install of an Advance.
type observation struct {
	id int32
	v  int64
}

// parallelGrain is the size, in node visits, below which a flush runs on the
// server's goroutine. One barrier — signal the workers, park, be woken by
// the last of them — costs about what visiting 2–3·10⁴ nodes costs on the
// box BenchmarkLiveGrain (root bench_test.go) was read on. The grain sits
// above that because a flush is priced before it runs, and whole max-find
// runs measured best with this value. The benchmark's comment has the
// crossover table and the benchmark fails when the constant stops fitting.
const parallelGrain = 1 << 16

// config collects construction options.
type config struct {
	shards int
	grain  int
}

// Option configures the engine at construction.
type Option func(*config)

// WithShards sets the number of worker goroutines (shards) the engine runs.
// Each worker owns a contiguous range of roughly n/m nodes and its own
// value-bucket partition. Any m ≤ 0 (including the default 0) means
// runtime.GOMAXPROCS(0); values above n are clamped to n. The shard count
// never affects observable behaviour — outputs, counters, and coin flips
// are bit-identical for every value (asserted by the sharded conformance
// and equivalence tests) — it only trades goroutine parallelism against
// wake-up cost, and only on the flushes large enough to go to the workers.
func WithShards(m int) Option {
	return func(c *config) { c.shards = m }
}

// WithGrain replaces parallelGrain for one engine: 0 sends every flush
// through the workers, math.MaxInt runs every flush but Close's on the
// caller. White-box scaffolding for tests and benchmarks, like Flushes and
// Node — it keeps both dispatches under test at sizes where the constant
// would pick one — and not a tuning knob: nothing outside _test.go files
// calls it, and no facade, config or flag reaches it.
func WithGrain(visits int) Option {
	return func(c *config) { c.grain = visits }
}

// Cluster is the sharded concurrent engine.
type Cluster struct {
	n    int
	m    int // worker (shard) count
	ctr  *metrics.Counters
	rng  *rngx.Source
	maxV int64

	// shards[w] is the node range worker w owns (nodecore.Shard states the
	// node-mutation contract), outs[w] the report list its exec publishes
	// this flush's Collect/sweep replies into, in id order. Both are written
	// only inside a flush, by whoever runs exec for w, and read by the
	// server between flushes: outs' reports, and the lengths visits prices.
	// A shard keeps the matchers of the running sweep (Shard.Kept), resolved
	// in round 0, so later rounds evaluate no predicate.
	shards   []*nodecore.Shard
	outs     [][]wire.Report
	workerOf []int32 // node id → owning worker index

	// Pending batch. The server owns these between flushes; whoever executes
	// a flush reads them (and only them) during it. adv holds the batch's
	// staged observations in call order; each dirAdvance directive names a
	// run of it that lies on one shard (see stage). work is the batch's size
	// in node visits (see visits), which flush compares with grain.
	pend  []directive
	rules []wire.FilterRule
	adv   []observation
	work  int
	grain int

	// Flush delivery: per-worker signal channels, an atomic countdown, and
	// one completion channel the last worker signals. touched/touchedIDs
	// track which shards a unicast-only batch addresses; a broadcast
	// directive sets allTouched instead.
	sig        []chan struct{}
	remaining  atomic.Int64
	done       chan struct{}
	touched    []bool
	touchedIDs []int
	allTouched bool
	flushes    int64 // barrier rounds run, see Flushes
	wakes      int64 // worker wake-ups, see Wakes

	// probe is the reply slot of a Probe. Probe flushes at once, so a batch
	// carries at most one dirProbe: the exec of the shard owning its target
	// writes the slot during the flush, and the server reads it after.
	// Collect and sweep-round replies go through the per-shard report lists.
	probe wire.Report

	// Report buffers mirroring the lockstep engine's ownership contract:
	// sweepBuf backs Sweep results (recycled by the next Sweep), the
	// double-buffered collectBufs let a Collect result survive exactly one
	// further Collect.
	sweepBuf    []wire.Report
	collectBufs [2][]wire.Report
	collectIdx  int

	wg    sync.WaitGroup
	alive bool
}

// DefaultShards returns the worker-shard policy New applies when WithShards
// is not given (or is ≤ 0): one worker per schedulable CPU, i.e.
// GOMAXPROCS at construction time. New additionally clamps the count to n.
// Exported so harnesses (the bench-env stamp in the root test suite) can
// record the actual policy instead of duplicating it.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// New starts the engine's worker goroutines over n nodes.
func New(n int, seed uint64, opts ...Option) *Cluster {
	if n < 1 {
		panic("live: need at least one node")
	}
	cfg := config{grain: parallelGrain}
	for _, o := range opts {
		o(&cfg)
	}
	m := cfg.shards
	if m <= 0 {
		m = DefaultShards()
	}
	if m > n {
		m = n
	}
	root := rngx.New(seed)
	c := &Cluster{
		n:          n,
		m:          m,
		ctr:        metrics.NewCounters(),
		rng:        root.Child(nodecore.ServerRNG),
		maxV:       1,
		shards:     make([]*nodecore.Shard, m),
		outs:       make([][]wire.Report, m),
		workerOf:   make([]int32, n),
		pend:       make([]directive, 0, nodecore.ReportCap),
		rules:      make([]wire.FilterRule, 0, 4),
		adv:        make([]observation, 0, n),
		grain:      cfg.grain,
		sig:        make([]chan struct{}, m),
		done:       make(chan struct{}, 1),
		touched:    make([]bool, m),
		touchedIDs: make([]int, 0, m),
		sweepBuf:   make([]wire.Report, 0, nodecore.ReportCap),
		alive:      true,
	}
	for i := range c.collectBufs {
		c.collectBufs[i] = make([]wire.Report, 0, nodecore.ReportCap)
	}
	// Contiguous near-equal shards: the first n%m shards get one extra node.
	q, r := n/m, n%m
	base := 0
	for w := 0; w < m; w++ {
		size := q
		if w < r {
			size++
		}
		c.shards[w] = nodecore.NewShard(base, size, root)
		c.outs[w] = make([]wire.Report, 0, nodecore.ReportCap)
		for i := base; i < base+size; i++ {
			c.workerOf[i] = int32(w)
		}
		c.sig[w] = make(chan struct{}, 1)
		base += size
		c.wg.Add(1)
		go c.worker(w)
	}
	return c
}

// Shards returns the worker (shard) count m.
func (c *Cluster) Shards() int { return c.m }

// Flushes returns how many barrier rounds the engine has run since
// construction — whoever executed them: a flush small enough to run on the
// caller is a barrier round all the same. Like the lockstep engine's
// VisitedNodes it is engine-side work accounting for tests and benchmarks —
// a quiet step is one barrier, a silent sweep one, not γ+1 — and neither
// message cost nor part of the cluster interfaces.
func (c *Cluster) Flushes() int64 { return c.flushes }

// Wakes returns how many worker wake-ups the engine has paid since
// construction: one per worker signalled by a flush that went to the
// workers, none for a flush the caller ran. Same standing as Flushes.
func (c *Cluster) Wakes() int64 { return c.wakes }

// Node exposes one node for white-box tests, like the lockstep engine's
// accessor: not part of the cluster interfaces, never used by protocols,
// and read-only for the same reason. It flushes first, so every deferred
// directive has run and the workers are parked; the node is the caller's
// to read until its next call into the engine.
func (c *Cluster) Node(i int) *nodecore.Node {
	c.flush()
	return c.shards[c.workerOf[i]].Node(i)
}

// worker is one shard's goroutine: once per flush that is handed to the
// workers and addresses its shard, it executes the batch over the shard.
func (c *Cluster) worker(w int) {
	defer c.wg.Done()
	for range c.sig[w] {
		stop := c.exec(w)
		if c.remaining.Add(-1) == 0 {
			c.done <- struct{}{}
		}
		if stop {
			return
		}
	}
}

// exec is the one batch executor of a shard: it runs the pending directives
// addressed to shard w in batch order and publishes the replies. During a
// flush it is the only code touching the shard and its report list; flush
// decides whether worker w's goroutine or the server's runs it. A directive
// whose target is a node id is addressed to the shard owning that node
// only. It reports whether the batch carried dirStop.
func (c *Cluster) exec(w int) (stop bool) {
	sh, out := c.shards[w], c.outs[w][:0]
	for i := range c.pend {
		d := &c.pend[i]
		if d.target >= 0 && c.workerOf[d.target] != int32(w) {
			continue
		}
		switch d.kind {
		case dirAdvance:
			for _, o := range c.adv[d.lo:d.hi] {
				sh.Install(int(o.id), o.v)
			}
		case dirApplyRule:
			sh.ApplyRule(&c.rules[d.ruleIdx])
		case dirSetFilter:
			sh.SetFilter(d.target, d.iv)
		case dirSetTagFilter:
			sh.SetTagFilter(d.target, d.tag, d.iv)
		case dirProbe:
			c.probe = sh.Node(d.target).Report()
		case dirCollect:
			out = sh.Collect(out, d.pred)
		case dirExistRound:
			// Matchers are stable across one sweep's rounds (node state
			// only moves on Advance and the server's own messages,
			// which cannot interleave with a running Sweep), so only
			// round 0 resolves the predicate.
			if d.round == 0 {
				sh.Matchers(d.pred)
			}
			out = sh.Draw(out, d.prob)
		case dirMaxInit:
			sh.MaxFindInit(d.value, d.reset)
		case dirMaxRaise:
			sh.MaxFindRaise(d.holder, d.best)
		case dirMaxExclude:
			sh.MaxFindExclude(d.target)
		case dirReset:
			// ChildSeed derivation is pure, so one root per shard
			// rewinds every node exactly as a per-node root would.
			sh.Reset(rngx.New(d.seed))
		case dirStop:
			stop = true
		}
	}
	c.outs[w] = out
	return stop
}

// push appends a directive to the pending batch, records which shards the
// next flush addresses, and adds the directive's price to the batch's work.
func (c *Cluster) push(d directive) {
	switch d.target {
	case allNodes:
		c.allTouched = true
	case sweepers:
		for w, sh := range c.shards {
			if sh.Kept() > 0 {
				c.touch(w)
			}
		}
	default:
		c.touch(int(c.workerOf[d.target]))
	}
	c.work += c.visits(&d)
	c.pend = append(c.pend, d)
}

// touch marks shard w as addressed by the next flush.
func (c *Cluster) touch(w int) {
	if !c.allTouched && !c.touched[w] {
		c.touched[w] = true
		c.touchedIDs = append(c.touchedIDs, w)
	}
}

// visits prices a directive in node visits, the unit parallelGrain is in:
// what executing it will walk, summed over the shards. The shard-owned
// lengths it reads (the package doc says why the server may) are those before
// the directives already pending run; the price those paid covers what they
// can add — an observation or a filter one violator or one span member,
// MaxFindInit and BroadcastRule n — so the batch's work stays an upper
// estimate.
func (c *Cluster) visits(d *directive) int {
	switch d.kind {
	case dirAdvance:
		return 0 // stage adds one per observation
	case dirCollect:
		return c.scanSize(d.pred)
	case dirExistRound:
		if d.round == 0 {
			return c.scanSize(d.pred)
		}
		kept := 0
		for _, sh := range c.shards {
			kept += sh.Kept()
		}
		return kept
	case dirMaxRaise:
		// A raise walks the active lists: the max-find predicate's scan.
		return c.scanSize(wire.AboveActive(d.best))
	case dirApplyRule, dirMaxInit, dirReset:
		return c.n
	default:
		return 1
	}
}

// scanSize is what routing p visits over all shards; n if p is unroutable.
func (c *Cluster) scanSize(p wire.Pred) int {
	size := 0
	for _, sh := range c.shards {
		size += sh.ScanSize(p)
	}
	return size
}

// flush executes the pending batch over every shard it addresses and
// returns when all of them are done — the engine's barrier round. Who
// executes is a matter of size: a batch below the grain runs on the
// server's goroutine (run(true)), since waking a worker costs more than
// the batch does, and a larger one goes to the workers. Both run the same
// exec over the same shards, so nothing a caller can observe depends on
// the choice. After Close every call that reaches the nodes comes through
// here, and it panics: the workers it would signal have exited.
func (c *Cluster) flush() {
	if !c.alive {
		panic("live: use after Close")
	}
	if len(c.pend) == 0 {
		return
	}
	c.run(c.work < c.grain)
}

// run executes the pending batch: onCaller runs it here, shard after shard
// in ascending order; otherwise it is delivered to the touched workers in
// one signal each, and the server blocks until the last of them reports.
//
// Happens-before, worker dispatch: the server's writes to the batch precede
// the workers' reads (signal channel send/receive); every worker's writes
// precede the server's resumption (atomic countdown observed by the last
// worker, whose completion send the server receives). Caller dispatch
// writes shard state from the server's goroutine while the workers are
// parked, and the next signal a worker receives orders those writes before
// its reads.
func (c *Cluster) run(onCaller bool) {
	c.flushes++
	if onCaller {
		for w := range c.shards {
			if c.allTouched || c.touched[w] {
				c.exec(w)
			}
		}
	} else {
		if c.allTouched {
			c.wakes += int64(c.m)
			c.remaining.Store(int64(c.m))
			for _, ch := range c.sig {
				ch <- struct{}{}
			}
		} else {
			c.wakes += int64(len(c.touchedIDs))
			c.remaining.Store(int64(len(c.touchedIDs)))
			for _, w := range c.touchedIDs {
				c.sig[w] <- struct{}{}
			}
		}
		<-c.done
	}
	for _, w := range c.touchedIDs {
		c.touched[w] = false
	}
	c.touchedIDs = c.touchedIDs[:0]
	c.allTouched = false
	c.pend = c.pend[:0]
	c.rules = c.rules[:0]
	c.adv = c.adv[:0]
	c.work = 0
}

// Close stops all worker goroutines. Pending deferred directives are
// executed first, in the batch that carries the stop to every worker. Any
// later call that reaches the nodes (Probe, Collect, Sweep, DetectViolation,
// FiltersInto, Node) panics with "live: use after Close"; a second Close
// does nothing.
func (c *Cluster) Close() {
	if !c.alive {
		return
	}
	c.alive = false
	c.push(directive{kind: dirStop, target: allNodes})
	c.run(false)
	c.wg.Wait()
}

// Reset implements cluster.Cluster: it rewinds the engine — every node, the
// shard indexes, the counters, and the server RNG — to the state
// New(n, seed) constructs, keeping the workers, batch, and report buffers.
// The directive is deferred like any other non-response mutation. A reset
// engine replays a fresh engine's run bit for bit (asserted by the Reset
// property tests, including the sharded configurations).
func (c *Cluster) Reset(seed uint64) {
	root := rngx.New(seed)
	c.ctr.Reset()
	c.rng.Reseed(root.ChildSeed(nodecore.ServerRNG))
	c.maxV = 1
	c.push(directive{kind: dirReset, target: allNodes, seed: seed})
}

// N implements cluster.Cluster.
func (c *Cluster) N() int { return c.n }

// Counters implements cluster.Cluster.
func (c *Cluster) Counters() *metrics.Counters { return c.ctr }

// Rand implements cluster.Cluster.
func (c *Cluster) Rand() *rngx.Source { return c.rng }

func (c *Cluster) count(ch metrics.Channel, k wire.Kind) {
	c.ctr.Count(ch, k, wire.MsgBits(k, c.n, c.maxV))
}

// Advance implements cluster.Inspector: every node's entry of values is
// staged for the next flush. Callers may reuse their slice immediately.
func (c *Cluster) Advance(values []int64) { c.stage(values, nil, len(values)) }

// AdvanceDirty implements cluster.Inspector: the same staging as Advance,
// for the dirty nodes only, so the next flush addresses (on this directive's
// account) only the shards that own one — and an empty heartbeat stages
// nothing and addresses nobody.
func (c *Cluster) AdvanceDirty(values []int64, dirty []int) { c.stage(values, dirty, len(dirty)) }

// stage is the one install routine behind both Advance forms. It stages
// count observations — of the nodes ids[0:count], or of nodes 0..count-1
// when ids is nil (the dense form) — each checked by the argument checks
// shared with lockstep, which run here so a bad call panics at the caller
// and not in a worker, folded into the running Δ, and copied into the
// engine-owned batch. Consecutive
// observations on one shard share a dirAdvance directive, so a full vector
// in id order costs one directive per shard.
//
// Staged observations are installed in batch order like every other
// directive, and each call's values live in their own run of adv. A
// deferred MaxFindInit or MaxFindRaise between two Advances therefore reads
// the values call order promises: there is no shared value vector a later
// Advance could overwrite, and so no reason to flush early.
func (c *Cluster) stage(values []int64, ids []int, count int) {
	nodecore.CheckAdvance("live", c.n, values)
	run := int32(-1) // shard of the directive being extended
	for i := 0; i < count; i++ {
		id := i
		if ids != nil {
			id = ids[i]
		}
		v := values[id]
		nodecore.CheckValue("live", id, v)
		if v > c.maxV {
			c.maxV = v
		}
		if w := c.workerOf[id]; w != run {
			run = w
			c.push(directive{kind: dirAdvance, target: id, lo: len(c.adv), hi: len(c.adv)})
		}
		c.pend[len(c.pend)-1].hi++
		c.adv = append(c.adv, observation{id: int32(id), v: v})
		c.work++
	}
}

// EndStep implements cluster.Inspector.
func (c *Cluster) EndStep() { c.ctr.EndStep() }

// FiltersInto implements cluster.Inspector. Like Node it flushes first and
// then reads the parked shards' nodes directly; shards cover ascending id
// ranges, so dst comes back in id order.
func (c *Cluster) FiltersInto(dst []filter.Interval) []filter.Interval {
	c.flush()
	dst = dst[:0]
	for _, sh := range c.shards {
		for _, id := range sh.IDs() {
			dst = append(dst, sh.Node(int(id)).Filter)
		}
	}
	return dst
}

// BroadcastRule implements cluster.Cluster. The rule is copied into the
// engine-owned batch, so the caller may mutate and reuse it immediately —
// the contract's "fully applied on return" holds observably because every
// read of node state flushes first.
func (c *Cluster) BroadcastRule(rule *wire.FilterRule) {
	c.count(metrics.Broadcast, wire.KindFilterRule)
	c.ctr.Rounds(1)
	c.rules = append(c.rules, *rule)
	c.push(directive{kind: dirApplyRule, target: allNodes, ruleIdx: len(c.rules) - 1})
}

// SetFilter implements cluster.Cluster.
func (c *Cluster) SetFilter(id int, iv filter.Interval) {
	c.count(metrics.ServerToNode, wire.KindSetFilter)
	c.push(directive{kind: dirSetFilter, target: id, iv: iv})
}

// SetTagFilter implements cluster.Cluster.
func (c *Cluster) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	c.count(metrics.ServerToNode, wire.KindSetFilter)
	c.push(directive{kind: dirSetTagFilter, target: id, tag: t, iv: iv})
}

// Probe implements cluster.Cluster.
func (c *Cluster) Probe(id int) wire.Report {
	c.count(metrics.ServerToNode, wire.KindProbeRequest)
	c.count(metrics.NodeToServer, wire.KindProbeReply)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirProbe, target: id})
	c.flush()
	return c.probe
}

// Collect implements cluster.Cluster. Results alternate between two
// engine-owned buffers, honouring the Cluster contract that a Collect
// result survives exactly one further Collect. Workers route the scan
// through their shard's value index; the server concatenates the per-shard
// match lists in shard order (= id order), so gather cost is O(m + matches)
// rather than O(n).
func (c *Cluster) Collect(p wire.Pred) []wire.Report {
	c.count(metrics.Broadcast, wire.KindCollect)
	c.ctr.Rounds(1)
	if !vindex.Routable(p) {
		// Predicate-only decision, billed server-side so the count is
		// bit-identical to the lockstep engine's for equal call sequences.
		c.ctr.IndexFallback()
	}
	c.push(directive{kind: dirCollect, target: allNodes, pred: p})
	c.flush()
	out := c.collectBufs[c.collectIdx][:0]
	for _, reps := range c.outs {
		for _, rep := range reps {
			c.count(metrics.NodeToServer, wire.KindCollectReply)
			out = append(out, rep)
		}
	}
	c.collectBufs[c.collectIdx] = out
	c.collectIdx ^= 1
	return out
}

// Sweep implements cluster.Cluster: the EXISTENCE protocol of Lemma 3.1,
// one batched barrier per probabilistic round that has a matcher to draw.
// Round 0 goes to every shard and brings back each one's matcher count
// beside its reports; a sweep nobody matches ends there, with its remaining
// γ rounds billed and not run, and a later round addresses only the shards
// that hold a matcher. The returned slice is backed by the engine-owned
// sweep buffer and recycled by the next Sweep.
func (c *Cluster) Sweep(p wire.Pred) []wire.Report {
	if !vindex.Routable(p) {
		// One fallback per sweep (the predicate is resolved once, in round
		// 0), matching the lockstep engine's accounting.
		c.ctr.IndexFallback()
	}
	gamma := nodecore.ExistenceRounds(c.n)
	target := allNodes
	for r := 0; r <= gamma; r++ {
		c.ctr.Rounds(1)
		c.push(directive{kind: dirExistRound, target: target, pred: p, round: r, prob: nodecore.ExistenceProb(r, c.n)})
		c.flush()
		target = sweepers
		matchers := 0
		senders := c.sweepBuf[:0]
		for w, sh := range c.shards {
			if sh.Kept() == 0 {
				continue // not addressed after round 0: outs[w] is not this round's
			}
			matchers += sh.Kept()
			for _, rep := range c.outs[w] {
				c.count(metrics.NodeToServer, wire.KindExistenceReport)
				senders = append(senders, rep)
			}
		}
		c.sweepBuf = senders[:0]
		if len(senders) > 0 {
			c.count(metrics.Broadcast, wire.KindHalt)
			return senders
		}
		if matchers == 0 {
			c.ctr.Rounds(int64(gamma - r))
			return nil
		}
	}
	return nil // not reached: the final round sends with certainty
}

// DetectViolation implements cluster.Cluster.
func (c *Cluster) DetectViolation() (wire.Report, bool) {
	senders := c.Sweep(wire.Violating())
	if len(senders) == 0 {
		return wire.Report{}, false
	}
	return senders[c.rng.Intn(len(senders))], true
}

// MaxFindInit implements cluster.Cluster.
func (c *Cluster) MaxFindInit(floor int64, reset bool) {
	c.count(metrics.Broadcast, wire.KindMaxFindInit)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirMaxInit, target: allNodes, value: floor, reset: reset})
}

// MaxFindRaise implements cluster.Cluster.
func (c *Cluster) MaxFindRaise(holder int, best int64) {
	c.count(metrics.Broadcast, wire.KindMaxFindRaise)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirMaxRaise, target: allNodes, holder: holder, best: best})
}

// MaxFindExclude implements cluster.Cluster.
func (c *Cluster) MaxFindExclude(id int) {
	c.count(metrics.Broadcast, wire.KindMaxFindExclude)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirMaxExclude, target: id})
}
