// Package live implements the cluster interface with genuinely concurrent
// workers communicating over channels — the protocols running against a
// "distributed" cluster rather than a sequential loop.
//
// A Cluster is the one server, cluster.Server, over a node side of its
// own: the batcher, which implements cluster.Nodes by turning each call
// into a directive and running the batch over m shards. The server bills;
// everything below is about who runs the node work, and when.
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
// The server's sweep loop asks for one EXISTENCE round at a time, and each
// is one barrier. Round 0 addresses every shard: each resolves its
// matchers, keeps the list for the later rounds, and draws the round's
// coins over it. The matcher counts come back with the round's reports.
// When no shard holds a matcher the sweep is silent, and the server bills
// the remaining γ rounds and returns — a quiet violation sweep is one
// barrier, not γ+1. Otherwise each later round addresses only the shards
// that hold a matcher and they draw over their kept lists; nothing
// re-evaluates a predicate.
//
// # Batched directives
//
// The server does not send one channel message per node per directive.
// Instead it appends directives to a pending batch and flushes the batch as
// one barrier round: every shard the batch addresses executes the directives
// meant for it in order (exec, the one batch executor) and publishes replies
// into its shard's report list (a Probe's, a Collect's or a sweep round's).
// Directives that need no answer (Advance, BroadcastRule, SetFilter,
// SetTagFilter, MaxFind*, Reset) are deferred — they ride along with the
// next response-bearing flush — so a typical time step pays one barrier for
// Advance + the first sweep round combined instead of one per directive.
// Per-node execution order equals call order, so deferral is semantically
// invisible.
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
// The batch and the report lists are engine-owned and reused, like the
// server's report buffers: the steady state allocates nothing under either
// dispatch (asserted by TestLiveStepAllocs and tracked by BenchmarkLiveStep).
// Report-slice ownership follows the cluster.Cluster contract — a Collect
// result survives exactly one further Collect, a Sweep result only until the
// next Sweep.
//
// # Semantics
//
// Billing is the server's, so it is the lockstep engine's by construction;
// what remains to match is the node work. A flush is a synchronous
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
// Flushes counts barrier rounds whoever executed them, and the batcher's
// wakes the worker wake-ups paid for them (none for a caller-run flush),
// which only this package's tests read.
package live

import (
	"runtime"
	"sync"
	"sync/atomic"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

type dirKind uint8

const (
	dirAdvance   dirKind = iota // observations batcher.adv[lo:hi], all on target's shard
	dirApplyRule                // rule at batcher.rules[ruleIdx]
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
	root    *rngx.Source // dirReset
	lo, hi  int          // dirAdvance: the directive's range of batcher.adv
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

// Cluster is the sharded concurrent engine: the one server, cluster.Server,
// over a batcher of m worker shards.
type Cluster struct {
	cluster.Server
	b *batcher
}

// batcher is the engine's node side (cluster.Nodes): it turns each call
// into a directive of the pending batch and flushes the batch where the
// server needs a reply.
type batcher struct {
	n int
	m int // worker (shard) count

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
	// run of it that lies on one shard (see Advance). work is the batch's
	// size in node visits (see visits), which flush compares with grain.
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
	wakes      int64 // worker wake-ups: one per worker a flush signals

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
	b := &batcher{
		n:          n,
		m:          m,
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
		alive:      true,
	}
	// Contiguous near-equal shards: the first n%m shards get one extra node.
	q, r := n/m, n%m
	base := 0
	for w := 0; w < m; w++ {
		size := q
		if w < r {
			size++
		}
		b.shards[w] = nodecore.NewShard(base, size, root)
		b.outs[w] = make([]wire.Report, 0, nodecore.ReportCap)
		for i := base; i < base+size; i++ {
			b.workerOf[i] = int32(w)
		}
		b.sig[w] = make(chan struct{}, 1)
		base += size
		b.wg.Add(1)
		go b.worker(w)
	}
	return &Cluster{Server: cluster.NewServer(b, n, root), b: b}
}

// Flushes returns how many barrier rounds the engine has run since
// construction — whoever executed them: a flush small enough to run on the
// caller is a barrier round all the same. Like the lockstep engine's
// VisitedNodes it is engine-side work accounting for tests and benchmarks —
// a quiet step is one barrier, a silent sweep one, not γ+1 — and neither
// message cost nor part of the cluster interfaces.
func (c *Cluster) Flushes() int64 { return c.b.flushes }

// Close stops all worker goroutines. Pending deferred directives are
// executed first, in the batch that carries the stop to every worker. Any
// later call that reaches the nodes (Probe, Collect, Sweep, DetectViolation,
// FiltersInto, Node) panics with "live: use after Close"; a second Close
// does nothing.
func (c *Cluster) Close() {
	b := c.b
	if !b.alive {
		return
	}
	b.alive = false
	b.push(directive{kind: dirStop, target: allNodes})
	b.run(false)
	b.wg.Wait()
}

// worker is one shard's goroutine: once per flush that is handed to the
// workers and addresses its shard, it executes the batch over the shard.
func (b *batcher) worker(w int) {
	defer b.wg.Done()
	for range b.sig[w] {
		stop := b.exec(w)
		if b.remaining.Add(-1) == 0 {
			b.done <- struct{}{}
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
func (b *batcher) exec(w int) (stop bool) {
	sh, out := b.shards[w], b.outs[w][:0]
	for i := range b.pend {
		d := &b.pend[i]
		if d.target >= 0 && b.workerOf[d.target] != int32(w) {
			continue
		}
		switch d.kind {
		case dirAdvance:
			for _, o := range b.adv[d.lo:d.hi] {
				sh.Install(int(o.id), o.v)
			}
		case dirApplyRule:
			sh.ApplyRule(&b.rules[d.ruleIdx])
		case dirSetFilter:
			sh.SetFilter(d.target, d.iv)
		case dirSetTagFilter:
			sh.SetTagFilter(d.target, d.tag, d.iv)
		case dirProbe:
			out = append(out, sh.Probe(d.target))
		case dirCollect:
			out = sh.Collect(out, d.pred)
		case dirExistRound:
			out, _ = sh.Round(out, d.pred, d.round, d.prob)
		case dirMaxInit:
			sh.MaxFindInit(d.value, d.reset)
		case dirMaxRaise:
			sh.MaxFindRaise(d.holder, d.best)
		case dirMaxExclude:
			sh.MaxFindExclude(d.target)
		case dirReset:
			// ChildSeed derivation is pure, so the one root rewinds every
			// shard exactly as per-shard roots would.
			sh.Reset(d.root)
		case dirStop:
			stop = true
		}
	}
	b.outs[w] = out
	return stop
}

// push appends a directive to the pending batch, records which shards the
// next flush addresses, and adds the directive's price to the batch's work.
func (b *batcher) push(d directive) {
	switch d.target {
	case allNodes:
		b.allTouched = true
	case sweepers:
		for w, sh := range b.shards {
			if sh.Kept() > 0 {
				b.touch(w)
			}
		}
	default:
		b.touch(int(b.workerOf[d.target]))
	}
	b.work += b.visits(&d)
	b.pend = append(b.pend, d)
}

// touch marks shard w as addressed by the next flush.
func (b *batcher) touch(w int) {
	if !b.allTouched && !b.touched[w] {
		b.touched[w] = true
		b.touchedIDs = append(b.touchedIDs, w)
	}
}

// visits prices a directive in node visits, the unit parallelGrain is in:
// what executing it will walk, summed over the shards. The shard-owned
// lengths it reads (the package doc says why the server may) are those before
// the directives already pending run; the price those paid covers what they
// can add — an observation or a filter one violator or one span member,
// MaxFindInit and BroadcastRule n — so the batch's work stays an upper
// estimate.
func (b *batcher) visits(d *directive) int {
	switch d.kind {
	case dirAdvance:
		return 0 // Advance adds one per observation
	case dirCollect:
		return b.scanSize(d.pred)
	case dirExistRound:
		if d.round == 0 {
			return b.scanSize(d.pred)
		}
		kept := 0
		for _, sh := range b.shards {
			kept += sh.Kept()
		}
		return kept
	case dirMaxRaise:
		// A raise walks the active lists: the max-find predicate's scan.
		return b.scanSize(wire.AboveActive(d.best))
	case dirApplyRule, dirMaxInit, dirReset:
		return b.n
	default:
		return 1
	}
}

// scanSize is what routing p visits over all shards; n if p is unroutable.
func (b *batcher) scanSize(p wire.Pred) int {
	size := 0
	for _, sh := range b.shards {
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
func (b *batcher) flush() {
	if !b.alive {
		panic("live: use after Close")
	}
	if len(b.pend) == 0 {
		return
	}
	b.run(b.work < b.grain)
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
func (b *batcher) run(onCaller bool) {
	b.flushes++
	if onCaller {
		for w := range b.shards {
			if b.allTouched || b.touched[w] {
				b.exec(w)
			}
		}
	} else {
		if b.allTouched {
			b.wakes += int64(b.m)
			b.remaining.Store(int64(b.m))
			for _, ch := range b.sig {
				ch <- struct{}{}
			}
		} else {
			b.wakes += int64(len(b.touchedIDs))
			b.remaining.Store(int64(len(b.touchedIDs)))
			for _, w := range b.touchedIDs {
				b.sig[w] <- struct{}{}
			}
		}
		<-b.done
	}
	for _, w := range b.touchedIDs {
		b.touched[w] = false
	}
	b.touchedIDs = b.touchedIDs[:0]
	b.allTouched = false
	b.pend = b.pend[:0]
	b.rules = b.rules[:0]
	b.adv = b.adv[:0]
	b.work = 0
}

// Advance implements cluster.Nodes: it stages the observations of the
// nodes ids, or of every node when ids is nil, for the next flush, so a
// delta addresses only the shards that own one of its ids. Each value is
// checked here, so a bad call panics at the caller and not in a worker,
// and copied into the engine-owned batch: callers may reuse their slice
// immediately. Consecutive observations on one shard share a dirAdvance
// directive, so a full vector in id order costs one directive per shard.
//
// Staged observations are installed in batch order like every other
// directive, and each call's values live in their own run of adv. A
// deferred MaxFindInit or MaxFindRaise between two Advances therefore reads
// the values call order promises: there is no shared value vector a later
// Advance could overwrite, and so no reason to flush early.
func (b *batcher) Advance(values []int64, ids []int) (top int64) {
	count := len(ids)
	if ids == nil {
		count = b.n
	}
	run := int32(-1) // shard of the directive being extended
	for i := 0; i < count; i++ {
		id := i
		if ids != nil {
			id = ids[i]
		}
		v := values[id]
		nodecore.CheckValue(id, v)
		top = max(top, v)
		if w := b.workerOf[id]; w != run {
			run = w
			b.push(directive{kind: dirAdvance, target: id, lo: len(b.adv), hi: len(b.adv)})
		}
		b.pend[len(b.pend)-1].hi++
		b.adv = append(b.adv, observation{id: int32(id), v: v})
		b.work++
	}
	return top
}

// ApplyRule implements cluster.Nodes. The rule is copied into the
// engine-owned batch, so the caller may mutate and reuse it immediately —
// the contract's "fully applied on return" holds observably because every
// read of node state flushes first.
func (b *batcher) ApplyRule(rule *wire.FilterRule) {
	b.rules = append(b.rules, *rule)
	b.push(directive{kind: dirApplyRule, target: allNodes, ruleIdx: len(b.rules) - 1})
}

// SetFilter implements cluster.Nodes.
func (b *batcher) SetFilter(id int, iv filter.Interval) {
	b.push(directive{kind: dirSetFilter, target: id, iv: iv})
}

// SetTagFilter implements cluster.Nodes.
func (b *batcher) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	b.push(directive{kind: dirSetTagFilter, target: id, tag: t, iv: iv})
}

// Probe implements cluster.Nodes: the reply is the one report the target's
// shard publishes.
func (b *batcher) Probe(id int) wire.Report {
	b.push(directive{kind: dirProbe, target: id})
	b.flush()
	return b.outs[b.workerOf[id]][0]
}

// Collect implements cluster.Nodes: every shard routes p through its own
// structures, and the per-shard match lists are concatenated in shard order
// (= id order), so gather cost is O(m + matches) rather than O(n).
func (b *batcher) Collect(dst []wire.Report, p wire.Pred) []wire.Report {
	b.push(directive{kind: dirCollect, target: allNodes, pred: p})
	b.flush()
	for _, reps := range b.outs {
		dst = append(dst, reps...)
	}
	return dst
}

// Round implements cluster.Nodes, one barrier per round: round 0 goes to
// every shard, a later round only to the shards that hold a matcher.
func (b *batcher) Round(dst []wire.Report, p wire.Pred, r int, prob float64) ([]wire.Report, int) {
	target := allNodes
	if r > 0 {
		target = sweepers
	}
	b.push(directive{kind: dirExistRound, target: target, pred: p, round: r, prob: prob})
	b.flush()
	matchers := 0
	for w, sh := range b.shards {
		if sh.Kept() == 0 {
			continue // not addressed after round 0: outs[w] is not this round's
		}
		matchers += sh.Kept()
		dst = append(dst, b.outs[w]...)
	}
	return dst, matchers
}

// MaxFindInit implements cluster.Nodes.
func (b *batcher) MaxFindInit(floor int64, reset bool) {
	b.push(directive{kind: dirMaxInit, target: allNodes, value: floor, reset: reset})
}

// MaxFindRaise implements cluster.Nodes.
func (b *batcher) MaxFindRaise(holder int, best int64) {
	b.push(directive{kind: dirMaxRaise, target: allNodes, holder: holder, best: best})
}

// MaxFindExclude implements cluster.Nodes.
func (b *batcher) MaxFindExclude(id int) {
	b.push(directive{kind: dirMaxExclude, target: id})
}

// Reset implements cluster.Nodes. The directive is deferred like any other
// non-response mutation; the workers, batch and report lists are kept.
func (b *batcher) Reset(root *rngx.Source) {
	b.push(directive{kind: dirReset, target: allNodes, root: root})
}

// AppendFilters implements cluster.Nodes. Like Node it flushes first and
// then reads the parked shards' nodes directly; shards cover ascending id
// ranges, so dst comes back in id order.
func (b *batcher) AppendFilters(dst []filter.Interval) []filter.Interval {
	b.flush()
	for _, sh := range b.shards {
		dst = sh.AppendFilters(dst)
	}
	return dst
}

// Node implements cluster.Nodes: read-only, for white-box tests. It
// flushes first, so every deferred directive has run and the workers are
// parked; the node is the caller's to read until its next call into the
// engine.
func (b *batcher) Node(i int) *nodecore.Node {
	b.flush()
	return b.shards[b.workerOf[i]].Node(i)
}
