// Package faults implements a deterministic, seed-driven fault injector at
// the cluster boundary: Wrap turns any cluster.Engine into one whose
// message layer misbehaves per a composable Plan — message drop,
// duplication, node crash/recover schedules, and delayed filter application
// — while both engines underneath run unchanged.
//
// # Determinism
//
// Every coin the injector flips comes from its own rngx child stream,
// derived from the engine seed and fully disjoint from the engine's one
// stream, the server's, which draws every sweep's sender ranks (the
// injector draws nothing from it and perturbs none of its draws). A run under seed s and plan p therefore
// replays byte-identically — outputs, model counters, fault counters, and
// every injected fault — and Reset(seed) rewinds the injector's stream
// along with the engine, so a reset faulty run replays a fresh faulty run
// bit for bit (the reset-under-fault property tests).
//
// # Fault model
//
// The injector perturbs messages, not node state:
//
//   - Server→node unicasts (SetFilter, SetTagFilter, probe requests) can be
//     dropped. A reliability sublayer retries a dropped unicast up to
//     Plan.Retries times with exponentially growing backoff billed as
//     protocol rounds; only when every attempt fails (or the target is
//     crashed) is the op lost for good.
//   - Broadcasts (FilterRule, MaxFind*) can be dropped whole — no node
//     receives them — or, for filter rules, delivered twice (duplication is
//     not masked by retries: the server believes one copy was sent).
//   - Node→server reports (sweep/existence reports, collect replies) can be
//     dropped or duplicated individually.
//   - Filter application (SetFilter, SetTagFilter, BroadcastRule) can be
//     delayed one step: the op is held in flight and applied just before
//     the next step's observations install.
//   - A crashed node (per Plan.Crashes windows, in committed-step time)
//     receives nothing and reports nothing; a probe to it returns its last
//     value from before the crash (the server reading a stale cache). Node
//     state inside the engine keeps evolving invisibly, so a recovered node
//     may be arbitrarily desynced — which is exactly what the recovery
//     path must handle.
//
// Model message counters keep billing what the engine delivered;
// the injected faults are accounted separately in the pinned
// metrics.Counters fault counters (DroppedMsgs, DupMsgs, Retries), so a
// faulty run's bill remains comparable to a clean run's.
//
// # Desync detection
//
// The wrapper mirrors every filter and tag the server has assigned — the
// state the server believes the cluster is in. A violation-sweep report
// whose value sits inside the reporter's believed filter is impossible
// under that belief: some earlier filter op must have been lost (a missed
// SetFilter/FilterRule ack surfacing as an impossible report). The wrapper
// latches this as a desync signal that the recovery supervisor (topk
// facade) polls via TakeDesync to trigger an epoch resync before the
// divergence grows into a wrong answer.
//
// # Transparency
//
// A nil or zero Plan makes the wrapper bit-for-bit transparent: every
// method delegates straight to the engine, no coins are drawn, no report
// slices are copied, and the steady state allocates nothing — the existing
// cross-engine equivalence and zero-allocation suites pass through a
// zero-plan wrapper unchanged.
package faults

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// DefaultRetries is the reliability sublayer's retry budget per unicast
// when Plan.Retries is 0.
const DefaultRetries = 3

// NoRetries disables the reliability sublayer (Plan.Retries = NoRetries):
// a dropped unicast is lost on the first coin.
const NoRetries = -1

// Crash takes one node down for a window of committed steps: the node is
// unreachable (and silent) during steps t with From ≤ t < Until, where the
// first committed step is step 1. A node with several Crash entries is
// down during the union of their windows, which may overlap.
type Crash struct {
	Node int
	// From is the first committed step (1-based) the node is down for.
	From int64
	// Until is the first step the node is back up. Until ≤ From is an
	// empty window.
	Until int64
}

// KindMask selects which wire message kinds the drop/dup/delay coins apply
// to. The zero mask means "all kinds".
type KindMask uint16

// MaskOf returns a mask enabling exactly the given kinds. No program calls
// it; the tests of this package and internal/lockstep do.
func MaskOf(kinds ...wire.Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// Has reports whether kind k is enabled by the mask (zero mask = all).
func (m KindMask) Has(k wire.Kind) bool {
	return m == 0 || m&(1<<uint(k)) != 0
}

// Plan is a composable description of the faults to inject. The zero value
// (and nil) injects nothing and makes the wrapper fully transparent.
type Plan struct {
	// Drop is the per-message drop probability in [0, 1].
	Drop float64
	// Dup is the per-message duplication probability in [0, 1].
	Dup float64
	// Delay is the probability a filter op (SetFilter, SetTagFilter,
	// BroadcastRule) is held in flight and applied at the start of the
	// next step instead of immediately.
	Delay float64
	// Kinds masks which message kinds the rates above apply to; the zero
	// mask applies them to every kind.
	Kinds KindMask
	// Crashes is the node crash/recover schedule.
	Crashes []Crash
	// Retries is the reliability sublayer's budget of redelivery attempts
	// per dropped unicast: 0 means DefaultRetries, NoRetries disables
	// retries entirely.
	Retries int
}

// Active reports whether the plan can inject anything at all; an inactive
// plan (nil or zero rates and no crashes) makes Wrap fully transparent.
func (p *Plan) Active() bool {
	return p != nil && (p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || len(p.Crashes) > 0)
}

// retries resolves the Retries encoding to a concrete budget.
func (p *Plan) retries() int {
	switch {
	case p == nil || p.Retries == 0:
		return DefaultRetries
	case p.Retries < 0:
		return 0
	default:
		return p.Retries
	}
}

// Validate checks the plan's rates and crash windows.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"Drop", p.Drop}, {"Dup", p.Dup}, {"Delay", p.Delay}} {
		if !(r.v >= 0 && r.v <= 1) { // false for NaN too
			return fmt.Errorf("faults: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("faults: crash node %d outside [0, %d)", c.Node, n)
		}
		if c.From < 1 {
			return fmt.Errorf("faults: crash window for node %d starts at step %d, want ≥ 1", c.Node, c.From)
		}
	}
	return nil
}

// faultRNG is the Child id of the injector's randomness stream; distinct
// from the engines' server stream id (nodecore.ServerRNG), so the
// injector's draws are decorrelated from — and invisible to — the engine.
const faultRNG = 0xFA177 // "fault"

// delayedOp is one filter op held in flight across a step boundary.
type delayedOp struct {
	kind wire.Kind // KindSetFilter, KindTag (tag+filter), or KindFilterRule
	id   int
	tag  wire.Tag
	iv   filter.Interval
	rule wire.FilterRule
}

// Cluster wraps an engine with the fault injector. It implements
// cluster.Engine; protocols and the topk facade run on it unchanged.
type Cluster struct {
	inner cluster.Engine
	plan  Plan
	on    bool // plan.Active() at Wrap/Reset time
	rng   *rngx.Source
	ctr   *metrics.Counters

	// step is the 1-based index of the current committed step (incremented
	// by Advance); crash windows are expressed in this clock.
	step int64

	// crashWin indexes the plan's crash windows by node.
	crashWin map[int][]Crash

	// believedF/believedT mirror the filters and tags the server has
	// assigned — what the cluster looks like if no message was lost. The
	// desync detector compares violation reports against this belief.
	believedF []filter.Interval
	believedT []wire.Tag

	// lastVals is the crash-frozen view of the node values: the current
	// value of every node that is up, and for a crashed node its last value
	// from before the crash, backing the stale probe replies served while
	// the node is down. The engine's nodes stay the owners of the values.
	lastVals []int64

	// pending holds delayed filter ops, applied in order at next Advance.
	pending []delayedOp

	// desync latches the impossible-report signal until TakeDesync.
	desync bool

	// Report buffers for the perturbed Sweep/Collect paths, honouring the
	// cluster contract (collect results survive one further Collect; sweep
	// results until the next sweep). Unused — and unallocated — while the
	// plan is inactive, where inner slices pass through untouched.
	sweepBuf    []wire.Report
	collectBufs [2][]wire.Report
	collectIdx  int
}

var _ cluster.Engine = (*Cluster)(nil)

// Wrap layers the fault injector over an engine. The injector's RNG stream
// is derived from seed exactly as the engine derives its own streams, so
// Wrap(New(n, s), p, s) is one deterministic system under seed s. The plan
// is copied; later mutations of p do not affect the wrapper. Wrap panics on
// an invalid plan — a harness bug, not a data condition.
func Wrap(inner cluster.Engine, p *Plan, seed uint64) *Cluster {
	if err := p.Validate(inner.N()); err != nil {
		panic(err)
	}
	w := &Cluster{
		inner: inner,
		rng:   rngx.New(seed).Child(faultRNG),
		ctr:   inner.Counters(),
	}
	if p != nil {
		w.plan = *p
		w.plan.Crashes = append([]Crash(nil), p.Crashes...)
	}
	w.on = w.plan.Active()
	if w.on {
		n := inner.N()
		w.crashWin = make(map[int][]Crash, len(w.plan.Crashes))
		for _, c := range w.plan.Crashes {
			w.crashWin[c.Node] = append(w.crashWin[c.Node], c)
		}
		w.believedF = make([]filter.Interval, n)
		w.believedT = make([]wire.Tag, n)
		w.lastVals = make([]int64, n)
		w.resetBelief()
	}
	return w
}

// resetBelief returns the server-belief mirror to the engines' initial
// state: all-admitting filters, no tags.
func (w *Cluster) resetBelief() {
	for i := range w.believedF {
		w.believedF[i] = filter.All
		w.believedT[i] = wire.TagNone
	}
	clear(w.lastVals)
}

// Inner returns the wrapped engine (harness scaffolding: Close handling
// and white-box tests).
func (w *Cluster) Inner() cluster.Engine { return w.inner }

// Crashed reports whether node id is down at the current step.
func (w *Cluster) Crashed(id int) bool {
	if !w.on {
		return false
	}
	for _, c := range w.crashWin[id] {
		if w.step >= c.From && w.step < c.Until {
			return true
		}
	}
	return false
}

// TakeDesync returns and clears the latched desync signal: true when an
// impossible report (violation inside the reporter's believed filter)
// surfaced since the last call — evidence that a filter op was lost.
func (w *Cluster) TakeDesync() bool {
	d := w.desync
	w.desync = false
	return d
}

// perturb reports whether kind k's messages are subject to the plan's
// coins.
func (w *Cluster) perturb(k wire.Kind) bool {
	return w.on && w.plan.Kinds.Has(k)
}

// dropCoin draws one drop coin for kind k.
func (w *Cluster) dropCoin(k wire.Kind) bool {
	return w.perturb(k) && w.rng.Bool(w.plan.Drop)
}

// dupCoin draws one duplication coin for kind k.
func (w *Cluster) dupCoin(k wire.Kind) bool {
	return w.perturb(k) && w.rng.Bool(w.plan.Dup)
}

// delayCoin draws one delay coin for kind k.
func (w *Cluster) delayCoin(k wire.Kind) bool {
	return w.perturb(k) && w.rng.Bool(w.plan.Delay)
}

// deliverUnicast runs the reliability sublayer for one unicast of kind k to
// node id: the first attempt and up to Plan.Retries redeliveries, each
// retry billed one protocol round of backoff (1, 2, 4, … rounds — the
// synchronous model's rendering of exponential backoff) and one Retry.
// It returns false when every attempt was lost or the target is crashed —
// the op is gone for good (one DroppedMsg).
func (w *Cluster) deliverUnicast(k wire.Kind, id int) bool {
	if w.Crashed(id) {
		// No coin is drawn for an unreachable node: the sublayer burns its
		// whole retry budget against silence, then gives up.
		budget := w.plan.retries()
		for i := 0; i < budget; i++ {
			w.ctr.Retry()
			w.ctr.Rounds(1 << uint(i))
		}
		w.ctr.DroppedMsg()
		return false
	}
	if !w.dropCoin(k) {
		return true
	}
	budget := w.plan.retries()
	for i := 0; i < budget; i++ {
		w.ctr.Retry()
		w.ctr.Rounds(1 << uint(i))
		if !w.rng.Bool(w.plan.Drop) {
			return true
		}
	}
	w.ctr.DroppedMsg()
	return false
}

// ---- cluster.Cluster ----

// N implements cluster.Cluster.
func (w *Cluster) N() int { return w.inner.N() }

// Counters implements cluster.Cluster.
func (w *Cluster) Counters() *metrics.Counters { return w.ctr }

// Rand implements cluster.Cluster.
func (w *Cluster) Rand() *rngx.Source { return w.inner.Rand() }

// Reset implements cluster.Cluster: the engine rewinds as usual and the
// injector rewinds with it — RNG stream re-derived from seed, step clock,
// belief mirror, delay queue, and desync latch cleared — so a reset faulty
// system replays a freshly wrapped one bit for bit.
func (w *Cluster) Reset(seed uint64) {
	w.inner.Reset(seed)
	w.rng.Reseed(rngx.New(seed).ChildSeed(faultRNG))
	w.step = 0
	w.pending = w.pending[:0]
	w.desync = false
	if w.on {
		w.resetBelief()
	}
}

// BroadcastRule implements cluster.Cluster. The server's belief mirror is
// updated unconditionally — the server thinks the broadcast went out —
// while the coins decide what the nodes actually see: nothing (drop), the
// rule next step (delay), the rule once, or the rule twice (dup; rule
// application is not idempotent under retagging, which is the point).
func (w *Cluster) BroadcastRule(rule *wire.FilterRule) {
	if !w.on {
		w.inner.BroadcastRule(rule)
		return
	}
	w.believeRule(rule)
	if w.dropCoin(wire.KindFilterRule) {
		w.ctr.DroppedMsg()
		return
	}
	if w.delayCoin(wire.KindFilterRule) {
		w.pending = append(w.pending, delayedOp{kind: wire.KindFilterRule, rule: *rule})
		return
	}
	w.inner.BroadcastRule(rule)
	if w.dupCoin(wire.KindFilterRule) {
		w.ctr.DupMsg()
		w.inner.BroadcastRule(rule)
	}
}

// believeRule applies a filter rule to the belief mirror.
func (w *Cluster) believeRule(rule *wire.FilterRule) {
	for i := range w.believedT {
		w.believedT[i], w.believedF[i] = rule.Apply(w.believedT[i], w.believedF[i])
	}
}

// SetFilter implements cluster.Cluster.
func (w *Cluster) SetFilter(id int, iv filter.Interval) {
	if !w.on {
		w.inner.SetFilter(id, iv)
		return
	}
	w.believedF[id] = iv
	if !w.deliverUnicast(wire.KindSetFilter, id) {
		return
	}
	if w.delayCoin(wire.KindSetFilter) {
		w.pending = append(w.pending, delayedOp{kind: wire.KindSetFilter, id: id, iv: iv})
		return
	}
	w.inner.SetFilter(id, iv)
	if w.dupCoin(wire.KindSetFilter) {
		w.ctr.DupMsg()
		w.inner.SetFilter(id, iv)
	}
}

// SetTagFilter implements cluster.Cluster.
func (w *Cluster) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	if !w.on {
		w.inner.SetTagFilter(id, t, iv)
		return
	}
	w.believedT[id], w.believedF[id] = t, iv
	if !w.deliverUnicast(wire.KindSetFilter, id) {
		return
	}
	if w.delayCoin(wire.KindSetFilter) {
		w.pending = append(w.pending, delayedOp{kind: wire.KindTag, id: id, tag: t, iv: iv})
		return
	}
	w.inner.SetTagFilter(id, t, iv)
	if w.dupCoin(wire.KindSetFilter) {
		w.ctr.DupMsg()
		w.inner.SetTagFilter(id, t, iv)
	}
}

// Probe implements cluster.Cluster. A probe to a crashed node returns the
// server's stale cache of the node — its last value from before the crash,
// classified against the believed filter — after the request's retry
// budget burns out; a dropped reply is retried like any unicast exchange.
func (w *Cluster) Probe(id int) wire.Report {
	if !w.on {
		return w.inner.Probe(id)
	}
	if !w.deliverUnicast(wire.KindProbeRequest, id) {
		v := w.lastVals[id]
		return wire.Report{ID: id, Value: v, Dir: w.believedF[id].Violation(v)}
	}
	rep := w.inner.Probe(id)
	if w.dropCoin(wire.KindProbeReply) {
		// The reply, not the request, was lost; the sublayer re-asks.
		budget := w.plan.retries()
		for i := 0; i < budget; i++ {
			w.ctr.Retry()
			w.ctr.Rounds(1 << uint(i))
			if !w.rng.Bool(w.plan.Drop) {
				return rep
			}
		}
		w.ctr.DroppedMsg()
		v := w.lastVals[id]
		return wire.Report{ID: id, Value: v, Dir: w.believedF[id].Violation(v)}
	}
	return rep
}

// perturbReports filters one batch of node→server reports of kind k into
// dst: crashed senders are silenced, each surviving report draws a drop
// and a dup coin. Coins are drawn in report order, so the outcome is a
// pure function of (seed, plan, history).
func (w *Cluster) perturbReports(dst []wire.Report, reps []wire.Report, k wire.Kind) []wire.Report {
	dst = dst[:0]
	for _, r := range reps {
		if w.Crashed(r.ID) {
			continue
		}
		if w.dropCoin(k) {
			w.ctr.DroppedMsg()
			continue
		}
		dst = append(dst, r)
		if w.dupCoin(k) {
			w.ctr.DupMsg()
			dst = append(dst, r)
		}
	}
	return dst
}

// checkImpossible latches the desync signal for violation reports that
// contradict the server's belief: the reported value sits inside the
// filter the server assigned to the reporter, so the node must be running
// an older (lost) filter.
func (w *Cluster) checkImpossible(p wire.Pred, reps []wire.Report) {
	if p.Kind != wire.PredViolating {
		return
	}
	for _, r := range reps {
		if w.believedF[r.ID].Contains(r.Value) {
			w.desync = true
			return
		}
	}
}

// Collect implements cluster.Cluster. Under an active plan the inner
// result is perturbed into a wrapper-owned buffer (double-buffered to
// honour the survives-one-further-Collect contract); inactive plans pass
// the engine's slice through untouched.
func (w *Cluster) Collect(p wire.Pred) []wire.Report {
	if !w.on {
		return w.inner.Collect(p)
	}
	if w.dropCoin(wire.KindCollect) {
		// The collect broadcast itself was lost: no node answers.
		w.ctr.DroppedMsg()
		return nil
	}
	reps := w.inner.Collect(p)
	out := w.perturbReports(w.collectBufs[w.collectIdx][:0], reps, wire.KindCollectReply)
	w.collectBufs[w.collectIdx] = out
	w.collectIdx ^= 1
	w.checkImpossible(p, out)
	return out
}

// Sweep implements cluster.Cluster. Crashed or dropped senders are removed
// from the terminating round; when every sender is lost the sweep looks
// silent to the server — the dangerous case the recovery supervisor exists
// for.
func (w *Cluster) Sweep(p wire.Pred) []wire.Report {
	if !w.on {
		return w.inner.Sweep(p)
	}
	reps := w.inner.Sweep(p)
	if len(reps) == 0 {
		return nil
	}
	out := w.perturbReports(w.sweepBuf[:0], reps, wire.KindExistenceReport)
	w.sweepBuf = out[:0]
	w.checkImpossible(p, out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// DetectViolation implements cluster.Cluster. The decomposition (sweep,
// then one server coin among the survivors) consumes the engine's server
// RNG exactly as the engines' own DetectViolation does, so the inactive
// path is bit-transparent.
func (w *Cluster) DetectViolation() (wire.Report, bool) {
	if !w.on {
		return w.inner.DetectViolation()
	}
	senders := w.Sweep(wire.Violating())
	if len(senders) == 0 {
		return wire.Report{}, false
	}
	return senders[w.inner.Rand().Intn(len(senders))], true
}

// MaxFindInit implements cluster.Cluster; the broadcast can be lost whole.
func (w *Cluster) MaxFindInit(floor int64, reset bool) {
	if w.dropCoin(wire.KindMaxFindInit) {
		w.ctr.DroppedMsg()
		return
	}
	w.inner.MaxFindInit(floor, reset)
}

// MaxFindSeed implements cluster.Cluster; the broadcast can be lost whole,
// and the seed's acknowledgement like any node→server report: a crashed
// seed sends none, and a sent one draws a drop coin. Either loss returns
// false.
func (w *Cluster) MaxFindSeed(seed wire.Report) bool {
	if w.dropCoin(wire.KindMaxFindInit) {
		w.ctr.DroppedMsg()
		return false
	}
	if !w.inner.MaxFindSeed(seed) || w.Crashed(seed.ID) {
		return false
	}
	if w.dropCoin(wire.KindProbeReply) {
		w.ctr.DroppedMsg()
		return false
	}
	return true
}

// MaxFindRaise implements cluster.Cluster; the broadcast can be lost whole.
func (w *Cluster) MaxFindRaise(holder int, best int64) {
	if w.dropCoin(wire.KindMaxFindRaise) {
		w.ctr.DroppedMsg()
		return
	}
	w.inner.MaxFindRaise(holder, best)
}

// MaxFindExclude implements cluster.Cluster; the broadcast can be lost
// whole.
func (w *Cluster) MaxFindExclude(id int) {
	if w.dropCoin(wire.KindMaxFindExclude) {
		w.ctr.DroppedMsg()
		return
	}
	w.inner.MaxFindExclude(id)
}

// ---- cluster.Inspector ----

// FiltersInto implements cluster.Inspector.
func (w *Cluster) FiltersInto(dst []filter.Interval) []filter.Interval {
	return w.inner.FiltersInto(dst)
}

// Advance implements cluster.Inspector: the step clock ticks, filter ops
// delayed from the previous step land (in their original order, before the
// new observations install), and the stale-probe cache follows every node
// that is up.
func (w *Cluster) Advance(values []int64) {
	if !w.on {
		w.inner.Advance(values)
		return
	}
	w.beginStep(values)
	for i, v := range values {
		w.cache(i, v)
	}
	w.inner.Advance(values)
}

// AdvanceDirty implements cluster.Inspector: Advance with the cache
// following only the dirty nodes — an up node that is not dirty already
// has its current value cached.
func (w *Cluster) AdvanceDirty(values []int64, dirty []int) {
	if !w.on {
		w.inner.AdvanceDirty(values, dirty)
		return
	}
	w.beginStep(values)
	for _, id := range dirty {
		w.cache(id, values[id])
	}
	w.inner.AdvanceDirty(values, dirty)
}

// beginStep ticks the step clock and lands the delayed filter ops. It also
// re-reads the cache entry of every node whose crash window ends at this
// step: the node may have moved while it was down, and nothing else would
// refresh it until its next push. values[id] is the node's current value
// whether or not id is dirty (the AdvanceDirty promise).
func (w *Cluster) beginStep(values []int64) {
	w.step++
	for i := range w.pending {
		op := &w.pending[i]
		switch op.kind {
		case wire.KindFilterRule:
			w.inner.BroadcastRule(&op.rule)
		case wire.KindSetFilter:
			w.inner.SetFilter(op.id, op.iv)
		case wire.KindTag:
			w.inner.SetTagFilter(op.id, op.tag, op.iv)
		}
	}
	w.pending = w.pending[:0]
	for _, c := range w.plan.Crashes {
		if c.Until == w.step {
			w.cache(c.Node, values[c.Node])
		}
	}
}

// cache records v as node id's last known value unless the node is down:
// lastVals is the crash-frozen view, so a crashed node keeps the value it
// had before its window began.
func (w *Cluster) cache(id int, v int64) {
	if !w.Crashed(id) {
		w.lastVals[id] = v
	}
}

// EndStep implements cluster.Inspector.
func (w *Cluster) EndStep() { w.inner.EndStep() }
