// Package live implements the cluster interface with genuinely concurrent
// workers communicating over channels — the protocols running against a
// "distributed" cluster rather than a sequential loop.
//
// A Cluster is the one server, cluster.Server, over a node side of its
// own: the dispatcher, which implements cluster.Nodes by running each call
// over m shards before it returns. The server bills; everything below is
// about who runs the node work.
//
// # Worker shards
//
// The engine runs m ≪ n worker goroutines (m defaults to GOMAXPROCS,
// configurable with WithShards), each owning a contiguous shard of roughly
// n/m nodes. Model nodes are thereby decoupled from OS-level concurrency: a
// message that used to wake n goroutines now wakes at most m workers, each
// of which carries it out over its own nodes sequentially — the fix for the
// n = 10⁴ step cost where every quiet step paid n channel wake-ups per
// round — and a call too small to repay even those m wake-ups runs on the
// caller's goroutine (see "Dispatch"). One goroutine per node is the m = n
// special case.
//
// Each shard is a nodecore.Shard: the nodes of its id range and the routing
// structures over them, kept in step by the Shard's own mutators (its doc
// comment has the contract), so every call that changes a node is one
// Shard call per shard. Round 0 of an EXISTENCE sweep routes its predicate
// through those structures and falls back to the full shard scan only for
// tag predicates or domain-covering intervals.
//
// # Sweeps and Collects
//
// A sweep is one call to the shards, Resolve, and one walk on the caller,
// Senders. Resolve is round 0: it addresses every shard, and each keeps
// the matchers of its nodes (Shard.Kept) and reports their number. When
// there are none the sweep is silent, and the server bills the remaining γ
// rounds and returns — a quiet violation sweep is one node round, not γ+1.
// Otherwise the server draws every round's sender ranks over the M
// matchers, ranked in id order, from its own stream, and Senders turns the
// terminating round's ranks into reports on the caller: it walks the
// shards' kept lengths, which the parked workers leave alone, and reads
// each sender's report from its shard. Rounds past 0 dispatch nothing, and
// the ranks, drawn without looking at the shards, are the same at every
// shard count. A Collect is round 0 with every matcher sending: the
// server's Resolve, then Senders at every rank, so it costs one node round
// and its reports are read on the caller.
//
// # Dispatch
//
// Each call has run on every shard it addresses when it returns, as each
// of the model's rounds completes at the nodes before the next message is
// sent. Five kinds of call go through the dispatch (opKind): Advance,
// ApplyRule, Resolve, MaxFindInit and Reset. A delta Advance addresses the
// shards owning one of its ids, every other one of them every shard. Who
// runs such a call depends on its price in node visits: len(ids) for a
// delta Advance and n for a dense one, for ApplyRule the nodes its retag
// moves plus its set classes' violators and walks, or n when it takes the
// pass over the rows (nodecore.Shard.RuleVisits), n for Reset, n/8 for a
// MaxFindInit below 0 (it copies ids, it tests no node), the summed index
// span at a floor the value index routes and n at any other floor, and the
// shards' summed nodecore.Shard.ResolveSize for a Resolve — the active
// lists' lengths for a max-find sweep, which pay for the compaction a
// pending raise leaves them, and none for one whose active lists the floor
// watermark keeps whole. Below parallelGrain — about what one barrier
// costs, in visits — the caller runs exec itself over every shard, in
// ascending order, and no goroutine is woken; at or above it every
// addressed worker gets one signal, runs exec over its own shard beside the
// others, and decrements an atomic countdown, and whoever brings it to zero
// lets the caller return. The barrier tokens have no model cost, so this is
// scheduling only: a quiet step or a late max-find round over a few
// hundred nodes is not worth two goroutine hand-offs, a dense Advance or
// the first compaction of a max-find at n = 10⁵ is. Close stops the
// workers by closing their signal channels.
//
// Every other call runs on the caller, whatever the grain: the unicasts
// (SetFilter, SetTagFilter, Probe) and MaxFindExclude, each one visit at
// the shard owning its node; MaxFindRaise, which only records the raise in
// each shard; and the reads (Senders, AppendFilters, Node). Between two
// calls every worker is parked: it was either not signalled or has passed
// the countdown of the last call it ran, and it touches nothing until its
// next signal. So the caller may read the shard-owned lengths a price
// needs, run exec or any Shard method on any shard, and read the nodes
// between calls; the next signal a worker receives orders those accesses
// before its own.
//
// A call's arguments are read in place — the caller's value vector, id
// list and rule — since nothing reads them after the call returns. Every
// report is read on the caller into the server's buffers (Probe, Senders),
// and the steady state allocates nothing under either dispatch (asserted
// by TestLiveStepAllocs and tracked by BenchmarkLiveStep). Report-slice
// ownership follows the cluster.Cluster contract — a Collect result
// survives exactly one further Collect, a Sweep result only until the next
// Sweep.
//
// # Semantics
//
// Billing and every draw are the server's, so they are the lockstep
// engine's by construction; what remains to match is the node work. Shards
// visit their candidate nodes in ascending id order and cover ascending id
// ranges, so a sweep's matchers, whose ranks the server draws over, and the
// reports Senders reads at those ranks are in id order, as in lockstep.
// Nodes draw nothing. Both dispatches run the same exec over the same
// disjoint shards, so which one ran a call shows in nothing but time. A live run
// with the same seed therefore reproduces the lockstep run's counters,
// outputs and server stream state bit for bit — for every shard count and
// on either side of the grain — asserted by the cross-engine equivalence
// tests up to n = 10⁴, the sharded conformance and Reset suites (each also
// with every call forced through the workers), and TestMixedDispatch.
//
// One white-box counter says what a run cost the engine, not the model: the
// dispatcher's wakes, the worker wake-ups paid (none for a call run on the
// caller), which only this package's tests read.
package live

import (
	"runtime"
	"sync"
	"sync/atomic"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/nodecore"
	"topkmon/internal/wire"
)

type opKind uint8

const (
	opAdvance opKind = iota
	opApplyRule
	opResolve
	opMaxInit
	opReset
)

// op is the call being run: its kind and the caller's arguments.
type op struct {
	kind   opKind
	values []int64 // Advance
	ids    []int   // Advance: the delta's ids, nil for every node
	rule   *wire.FilterRule
	pred   wire.Pred
	v      int64 // MaxFindInit's floor
	reset  bool
}

// parallelGrain is the price, in node visits, below which a call runs on
// the caller's goroutine. One barrier — signal the workers, park, be woken
// by the last of them — costs about what visiting 2–3·10⁴ nodes costs on
// the box BenchmarkLiveGrain (root bench_test.go) was read on, and the
// grain sits there: whole max-find runs at 2¹⁸ nodes, whose compactions
// are memory-bound, measured best with this value. The benchmark's comment
// has the crossover table and the benchmark fails when the constant stops
// fitting.
const parallelGrain = 1 << 15

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
// never affects observable behaviour — outputs, counters, and the server's
// draws are bit-identical for every value (asserted by the sharded conformance
// and equivalence tests) — it only trades goroutine parallelism against
// wake-up cost, and only on the calls large enough to go to the workers.
func WithShards(m int) Option {
	return func(c *config) { c.shards = m }
}

// WithGrain replaces parallelGrain for one engine: 0 sends every call that
// goes through the dispatch (Advance, ApplyRule, Resolve, MaxFindInit,
// Reset) to the workers, math.MaxInt runs every call on the caller. The
// calls that always run on the caller (see "Dispatch") do so at any grain.
// White-box scaffolding for tests and benchmarks, like Node — it keeps
// both dispatches under test at sizes where the constant would pick one —
// and not a tuning knob: nothing outside _test.go files calls it, and no
// facade, config or flag reaches it.
func WithGrain(visits int) Option {
	return func(c *config) { c.grain = visits }
}

// Cluster is the sharded concurrent engine: the one server, cluster.Server,
// over a dispatcher of m worker shards.
type Cluster struct {
	cluster.Server
	d *dispatcher
}

// dispatcher is the engine's node side (cluster.Nodes): it runs each call
// over the shards it addresses, on the caller or on their workers.
type dispatcher struct {
	n int
	m int // worker (shard) count

	// shards[w] is the node range worker w owns (nodecore.Shard states the
	// node-mutation contract), written inside a call by whoever runs exec
	// for w, and by the caller itself for the calls it always runs. A
	// shard keeps the matchers of the running sweep or Collect
	// (Shard.Kept), resolved in round 0, which Senders reads on the caller.
	shards   []*nodecore.Shard
	workerOf []int32 // node id → owning worker index

	// op is the call being run; the caller writes it, whoever runs exec
	// reads it. owns marks the shards a delta Advance addresses when it
	// goes to the workers.
	op    op
	owns  []bool
	grain int

	// Worker delivery: per-worker signal channels, an atomic countdown, and
	// one completion channel for the worker that brings it to zero.
	sig       []chan struct{}
	remaining atomic.Int64
	done      chan struct{}
	wakes     int64 // worker wake-ups: one per worker a call signals, m per Close

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
	d := &dispatcher{
		n:        n,
		m:        m,
		shards:   make([]*nodecore.Shard, m),
		workerOf: make([]int32, n),
		owns:     make([]bool, m),
		grain:    cfg.grain,
		sig:      make([]chan struct{}, m),
		done:     make(chan struct{}, 1),
		alive:    true,
	}
	// Contiguous near-equal shards: the first n%m shards get one extra node.
	q, r := n/m, n%m
	base := 0
	for w := 0; w < m; w++ {
		size := q
		if w < r {
			size++
		}
		d.shards[w] = nodecore.NewShard(base, size)
		for i := base; i < base+size; i++ {
			d.workerOf[i] = int32(w)
		}
		d.sig[w] = make(chan struct{}, 1)
		base += size
		d.wg.Add(1)
		go d.worker(w)
	}
	return &Cluster{Server: cluster.NewServer(d, n, seed), d: d}
}

// Close stops all worker goroutines and returns once they have exited. Any
// later call that reaches the nodes panics with "live: use after Close"; a
// second Close does nothing.
func (c *Cluster) Close() {
	d := c.d
	if !d.alive {
		return
	}
	d.alive = false
	d.wakes += int64(d.m)
	for _, ch := range d.sig {
		close(ch)
	}
	d.wg.Wait()
}

// worker is one shard's goroutine: once per call handed to the workers
// that addresses its shard, it runs the call over the shard.
func (d *dispatcher) worker(w int) {
	defer d.wg.Done()
	for range d.sig[w] {
		d.exec(w, w+1)
		if d.remaining.Add(-1) == 0 {
			d.done <- struct{}{}
		}
	}
}

// exec is the one executor of a call: it runs d.op on the shards of
// [lo, hi) the call addresses — the caller passes every shard, a worker its
// own. A delta Advance walks its ids once, so on the caller it costs
// len(ids), not m·len(ids); it stages each install and then settles every
// shard of [lo, hi), so each shard's value index takes the delta as one
// batch, as in Shard.Advance. For Advance it returns the largest value
// installed.
func (d *dispatcher) exec(lo, hi int) (top int64) {
	o := &d.op
	switch o.kind {
	case opAdvance:
		if o.ids == nil {
			for _, sh := range d.shards[lo:hi] {
				top = max(top, sh.Advance(o.values, nil))
			}
			break
		}
		for _, id := range o.ids {
			if w := int(d.workerOf[id]); lo <= w && w < hi {
				v := o.values[id]
				nodecore.CheckValue(id, v)
				d.shards[w].Stage(id, v)
				top = max(top, v)
			}
		}
		for _, sh := range d.shards[lo:hi] {
			sh.Settle()
		}
	case opApplyRule:
		for _, sh := range d.shards[lo:hi] {
			sh.ApplyRule(o.rule)
		}
	case opResolve:
		for _, sh := range d.shards[lo:hi] {
			sh.Resolve(o.pred)
		}
	case opMaxInit:
		for _, sh := range d.shards[lo:hi] {
			sh.MaxFindInit(o.v, o.reset)
		}
	case opReset:
		for _, sh := range d.shards[lo:hi] {
			sh.Reset()
		}
	}
	return top
}

// owner returns the shard holding node id.
func (d *dispatcher) owner(id int) *nodecore.Shard { return d.shards[d.workerOf[id]] }

// addressed reports whether d.op reaches worker w's shard: a delta Advance
// reaches the shards owning one of its ids, every other call every shard.
func (d *dispatcher) addressed(w int) bool {
	return d.op.kind != opAdvance || d.op.ids == nil || d.owns[w]
}

// run executes d.op, priced at visits node visits, on every shard it
// addresses and returns when all of them are done. Below the grain it runs
// exec here, since waking a worker costs more than the call does, and
// returns exec's result; otherwise every addressed worker gets one signal,
// and run returns 0. After Close it panics, as every call that reaches the
// nodes on the caller does (checkAlive): the workers it would signal have
// exited.
//
// Happens-before, worker dispatch: the caller's writes to d.op and the
// shards precede a worker's reads (signal channel send/receive). The
// countdown starts at 1, the caller's own count, so no worker can bring it
// to zero before the caller has signalled every worker and dropped it;
// every worker's writes precede the caller's return, which either observes
// zero in its own decrement or receives from done after the worker that
// observed it.
func (d *dispatcher) run(visits int) (top int64) {
	d.checkAlive()
	if visits < d.grain {
		return d.exec(0, d.m)
	}
	d.remaining.Store(1)
	for w, ch := range d.sig {
		if d.addressed(w) {
			d.wakes++
			d.remaining.Add(1)
			ch <- struct{}{}
		}
	}
	if d.remaining.Add(-1) != 0 {
		<-d.done
	}
	return 0
}

// resolveSize is what resolving p visits over all shards.
func (d *dispatcher) resolveSize(p wire.Pred) int {
	size := 0
	for _, sh := range d.shards {
		size += sh.ResolveSize(p)
	}
	return size
}

// Advance implements cluster.Nodes: it installs the observations of the
// nodes ids, or of every node when ids is nil, so a delta addresses only
// the shards that own one of its ids. Each value is checked on the caller:
// on the workers' side of the grain all of them before any worker sees the
// call, so a bad call panics here and installs nothing, and on the
// caller's side each before it is installed.
func (d *dispatcher) Advance(values []int64, ids []int) (top int64) {
	d.op = op{kind: opAdvance, values: values, ids: ids}
	visits := len(ids)
	if ids == nil {
		visits = d.n
	}
	if visits < d.grain {
		return d.run(visits)
	}
	clear(d.owns)
	for i := range visits {
		id := i
		if ids != nil {
			id = ids[i]
			d.owns[d.workerOf[id]] = true
		}
		v := values[id]
		nodecore.CheckValue(id, v)
		top = max(top, v)
	}
	d.run(visits)
	return top
}

// ApplyRule implements cluster.Nodes, priced at the shards' summed
// Shard.RuleVisits: the nodes the retag moves, and the set classes'
// violators and walks, or every row for a rule whose walks take the pass.
// Every shard applies the rule before the call returns, so the caller may
// mutate and reuse it at once.
func (d *dispatcher) ApplyRule(rule *wire.FilterRule) {
	d.op = op{kind: opApplyRule, rule: rule}
	visits := 0
	for _, sh := range d.shards {
		visits += sh.RuleVisits(rule)
	}
	d.run(visits)
}

// SetFilter implements cluster.Nodes on the caller, with the workers
// parked, against the shard owning id: one node visit never repays a wake-up.
func (d *dispatcher) SetFilter(id int, iv filter.Interval) {
	d.checkAlive()
	d.owner(id).SetFilter(id, iv)
}

// SetTagFilter implements cluster.Nodes on the caller, like SetFilter.
func (d *dispatcher) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	d.checkAlive()
	d.owner(id).SetTagFilter(id, t, iv)
}

// Probe implements cluster.Nodes on the caller, like SetFilter.
func (d *dispatcher) Probe(id int) wire.Report {
	d.checkAlive()
	return d.owner(id).Probe(id)
}

// Resolve implements cluster.Nodes: every shard keeps its matchers of p,
// and the matcher count is the sum of the kept lengths.
func (d *dispatcher) Resolve(p wire.Pred) int {
	d.op = op{kind: opResolve, pred: p}
	d.run(d.resolveSize(p))
	m := 0
	for _, sh := range d.shards {
		m += sh.Kept()
	}
	return m
}

// Senders implements cluster.Nodes on the caller, with the workers parked:
// shard w's kept matchers hold the global ranks after those of the shards
// before it, so one walk over the kept lengths finds the shard of each
// ascending rank.
func (d *dispatcher) Senders(dst []wire.Report, ranks []int32) []wire.Report {
	d.checkAlive()
	w, first := 0, 0 // the first global rank of shard w
	for _, r := range ranks {
		for int(r)-first >= d.shards[w].Kept() {
			first += d.shards[w].Kept()
			w++
		}
		dst = append(dst, d.shards[w].KeptReport(int(r)-first))
	}
	return dst
}

// MaxFindInit implements cluster.Nodes, priced at the shards' summed
// Shard.InitVisits: below 0 an Init copies each shard's ids into its
// active list, and a copied id costs about an eighth of a node visit; a
// floor the value index routes costs its span, any other floor every node.
func (d *dispatcher) MaxFindInit(floor int64, reset bool) {
	d.op = op{kind: opMaxInit, v: floor, reset: reset}
	visits := 0
	for _, sh := range d.shards {
		v, _ := sh.InitVisits(floor)
		visits += v
	}
	d.run(visits)
}

// MaxFindRaise implements cluster.Nodes on the caller, with the workers
// parked: each shard only records the raise, and the compaction that
// applies it is paid by the next call that reads the active lists, a
// sweep's Resolve priced by the lists' lengths before it (ResolveSize).
func (d *dispatcher) MaxFindRaise(holder int, best int64) {
	d.checkAlive()
	for _, sh := range d.shards {
		sh.MaxFindRaise(holder, best)
	}
}

// MaxFindExclude implements cluster.Nodes on the caller, like SetFilter.
func (d *dispatcher) MaxFindExclude(id int) {
	d.checkAlive()
	d.owner(id).MaxFindExclude(id)
}

// Reset implements cluster.Nodes; the workers are kept.
func (d *dispatcher) Reset() {
	d.op = op{kind: opReset}
	d.run(d.n)
}

// AppendFilters implements cluster.Nodes. Like Node it reads the parked
// shards' nodes directly; shards cover ascending id ranges, so dst comes
// back in id order.
func (d *dispatcher) AppendFilters(dst []filter.Interval) []filter.Interval {
	d.checkAlive()
	for _, sh := range d.shards {
		dst = sh.AppendFilters(dst)
	}
	return dst
}

// Node implements cluster.Nodes, for white-box tests: the workers are
// parked, so the caller may read the node's shard between calls.
func (d *dispatcher) Node(i int) nodecore.Node {
	d.checkAlive()
	return d.owner(i).Node(i)
}

// checkAlive panics once Close has stopped the workers.
func (d *dispatcher) checkAlive() {
	if !d.alive {
		panic("live: use after Close")
	}
}
