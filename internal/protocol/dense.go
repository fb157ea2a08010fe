package protocol

import (
	"fmt"
	"slices"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// Dense is the DENSEPROTOCOL of Section 5.2, the main technical
// contribution: an ε-Top-k monitor competitive against an offline optimum
// that may itself use the error ε. It maintains a partition of the nodes —
// V1 (must be in any optimal output), V3 (cannot be), V2 (undecided, the
// dense ε-neighborhood of the reference value z) — and a guess interval
// L ⊆ [(1-ε)z, z] containing the lower endpoint ℓ* of the optimum's upper
// filter. Rounds halve L while the sets S1/S2 record V2 nodes observed above
// u_r / below ℓ_r; a node observed on both sides triggers the nested
// SUBPROTOCOL (subproto.go). When L empties, no feasible ℓ* remains, so the
// offline optimum communicated (Lemma 5.7) and the epoch ends.
//
// Dense runs under a controller (Approx, Theorem 5.8) that decides per epoch
// between Dense and TopKProto; the OnEpochEnd and OnSwitchTopK callbacks
// hand control back.
type Dense struct {
	c cluster.Cluster
	k int
	e eps.Eps

	// Reference value and derived exact thresholds.
	z      int64
	zUpper int64 // ⌊z/(1-ε)⌋: v > zUpper ⟺ v clearly above z
	zLowC  int64 // ⌈(1-ε)z⌉:  v < zLowC  ⟺ v clearly below z

	l     filter.Interval // L_r, the guess interval for ℓ*
	round int

	part   partition    // V1 / V2 / V3
	s1, s2 map[int]bool // subsets of V2

	sub *subState // non-nil while SUBPROTOCOL runs

	// Preamble state (z not yet pinned; Section 5.2's opening move when
	// the k-th and (k+1)-st values differ).
	inPreamble   bool
	preVK, preV1 int64

	out    []int
	epochs int64

	// active is true between StartWithProbe and epoch end / mode switch;
	// gen increments per epoch. Handlers use both to detect re-entrant
	// restarts triggered by their own callbacks.
	active bool
	gen    int64

	// OnEpochEnd is invoked when the epoch terminates (L empty or the
	// dense premise broke); the controller restarts. Required.
	OnEpochEnd func()
	// OnSwitchTopK is invoked when all of V2 is classified (case (d)):
	// the unique-output regime applies and TOP-K-PROTOCOL takes over.
	// Required.
	OnSwitchTopK func()

	// SubCalls counts SUBPROTOCOL invocations (Lemma 5.3's factor).
	SubCalls int64
	// Halvings counts L halvings across the epoch history.
	Halvings int64

	// Trace, when set, receives a line per state transition (debugging).
	Trace func(format string, args ...any)

	rules ruleScratch
	// Reusable working memory: the Start probe, the output recomputation
	// buffers, the epoch-opening and round-broadcast rules, the persistent
	// SUBPROTOCOL state, and a scratch id list for the deterministic sorted
	// iterations.
	probe                    []wire.Report
	takeBuf, fillBuf, outBuf []int
	resetRule, roundRule     wire.FilterRule
	subStore                 subState
	idBuf                    []int
}

// traceCase reports which case of the analysis a violation report fell
// into. The arguments are typed, and every other Trace call is guarded at
// its site, because handing values to a ...any parameter boxes them on the
// heap whether or not a hook is installed — and these lines sit on the
// per-violation path, whose steady state allocates nothing.
func (d *Dense) traceCase(name string, rep wire.Report) {
	if d.Trace != nil {
		d.Trace("%s node=%d v=%d", name, rep.ID, rep.Value)
	}
}

// NewDense returns the Section 5.2 monitor core.
func NewDense(c cluster.Cluster, k int, e eps.Eps) *Dense {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: Dense needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	if e.IsZero() {
		panic("protocol: Dense needs ε > 0; use ExactMid for the exact problem")
	}
	return &Dense{
		c: c, k: k, e: e,
		part: newPartition(c.N()),
		s1:   newIDSet(), s2: newIDSet(),
		subStore:  subState{s1: newIDSet(), s2: newIDSet()},
		rules:     newRuleScratch(),
		resetRule: resetAllTags(wire.TagV3),
		takeBuf:   make([]int, 0, k),
		outBuf:    make([]int, 0, k),
	}
}

// Name implements Monitor.
func (d *Dense) Name() string { return "dense-protocol" }

// Epochs implements Monitor.
func (d *Dense) Epochs() int64 { return d.epochs }

// Output implements Monitor.
func (d *Dense) Output() []int { return d.out }

// Start implements Monitor (standalone use; controllers call
// StartWithProbe).
func (d *Dense) Start() {
	d.probe = TopM(d.c, d.k+1, d.probe)
	d.StartWithProbe(d.probe)
}

// StartWithProbe begins an epoch from a freshly probed top-(k+1) list.
// If the k-th and (k+1)-st values coincide, z is pinned immediately;
// otherwise the preamble filters F1 = [v_{k+1}, ∞], F2 = [0, v_k] hold until
// the first violation pins z (Section 5.2's opening).
func (d *Dense) StartWithProbe(reps []wire.Report) {
	d.epochs++
	d.gen++
	d.active = true
	d.sub = nil
	vk, vk1 := reps[d.k-1].Value, reps[d.k].Value
	if d.Trace != nil {
		d.Trace("epoch %d start: vk=%d vk1=%d", d.epochs, vk, vk1)
	}
	if vk == vk1 {
		d.inPreamble = false
		d.beginWithZ(vk)
		return
	}
	d.inPreamble = true
	d.preVK, d.preV1 = vk, vk1
	d.outBuf = idsInto(d.outBuf, reps[:d.k])
	d.out = d.outBuf
	d.rules.assignTwoSided(d.c, d.out, filter.AtLeast(vk1), filter.AtMost(vk))
}

// beginWithZ classifies the nodes around z and opens round 0. It probes the
// ε-neighborhood (σ replies) and the clearly-above range (< k replies),
// matching the O(k log n + σ) initialisation of Lemma 5.3.
func (d *Dense) beginWithZ(z int64) {
	if d.Trace != nil {
		d.Trace("beginWithZ z=%d", z)
	}
	d.z = z
	d.zUpper = d.e.GrowFloor(z)
	d.zLowC = d.e.ShrinkCeil(z)

	high := d.c.Collect(wire.InRange(d.zUpper+1, filter.Inf))
	mid := d.c.Collect(wire.InRange(d.zLowC, d.zUpper))

	d.part.classify(high, mid)
	clear(d.s1)
	clear(d.s2)
	if d.part.size[classV1] > d.k || d.part.size[classV1]+d.part.size[classV2] < d.k {
		// The dense premise broke between probe and classification
		// (only possible across steps); restart.
		d.endEpoch()
		return
	}

	d.l = filter.Make(d.zLowC, z)
	d.round = 0

	// One broadcast resets everyone to V3 with its filter; V1 and V2
	// members get their tags by unicast (≤ k + σ messages).
	d.c.BroadcastRule(d.resetRule.With(wire.TagV3, filter.AtMost(d.ur())))
	d.idBuf = d.part.appendIDs(d.idBuf[:0], classV1)
	for _, i := range d.idBuf {
		d.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(d.lr()))
	}
	d.idBuf = d.part.appendIDs(d.idBuf[:0], classV2)
	for _, i := range d.idBuf {
		d.c.SetTagFilter(i, wire.TagV2, filter.Make(d.lr(), d.ur()))
	}
	d.refreshOutput()
}

// lr is ℓ_r, the midpoint of L_r.
func (d *Dense) lr() int64 { return d.l.Mid() }

// ur is u_r = ⌊ℓ_r/(1-ε)⌋.
func (d *Dense) ur() int64 { return d.e.GrowFloor(d.lr()) }

// HandleStep implements Monitor (standalone use).
func (d *Dense) HandleStep() {
	drainViolations(d.c, d.Handle)
}

// Handle routes one violation to the preamble, SUBPROTOCOL, or the DENSE
// case analysis.
func (d *Dense) Handle(rep wire.Report) {
	if d.inPreamble {
		d.inPreamble = false
		// Violation from below (a rest node crossed v_k): z := v_k;
		// from above (an output node fell through v_{k+1}): z := v_{k+1}.
		if rep.Dir == filter.DirUp {
			d.beginWithZ(d.preVK)
		} else {
			d.beginWithZ(d.preV1)
		}
		return
	}
	if d.sub != nil {
		d.handleSub(rep)
		return
	}
	d.handleDense(rep)
}

// endEpoch deactivates the epoch and hands control to the controller.
func (d *Dense) endEpoch() {
	if d.Trace != nil {
		d.Trace("endEpoch")
	}
	d.active = false
	d.OnEpochEnd()
}

// switchTopK deactivates the epoch and asks the controller to run
// TOP-K-PROTOCOL (case (d): the dense cluster dissolved).
func (d *Dense) switchTopK() {
	if d.Trace != nil {
		d.Trace("switchTopK")
	}
	d.active = false
	d.OnSwitchTopK()
}

// handleDense is the step-3 case analysis of DENSEPROTOCOL.
func (d *Dense) handleDense(rep wire.Report) {
	gen := d.gen
	i := rep.ID
	switch {
	case d.part.in(i, classV1):
		// Case a: i ∈ V1 fell below ℓ_r ⇒ ℓ* < ℓ_r.
		d.traceCase("D.a", rep)
		d.halveLower()
	case d.part.in(i, classV3):
		// Case a′: i ∈ V3 rose above u_r ⇒ ℓ* ≥ ℓ_r.
		d.traceCase("D.a'", rep)
		d.halveUpper()
	case d.s1[i] && d.s2[i]:
		// An unresolved S1∩S2 node: SUBPROTOCOL decides it (the
		// re-entry rule, see maybeReenterSub).
		if d.Trace != nil {
			d.Trace("D.reenter node=%d", i)
		}
		d.startSub(i)
	case d.s1[i]:
		if rep.Dir == filter.DirUp {
			// Case c.1: v > z/(1-ε) ⇒ i must be in F*.
			d.traceCase("D.c1", rep)
			d.moveToV1(i)
		} else {
			// Case c.2: also observed below ℓ_r ⇒ S1∩S2 ⇒ SUB.
			d.traceCase("D.c2", rep)
			d.s2[i] = true
			d.startSub(i)
		}
	case d.s2[i]:
		if rep.Dir == filter.DirDown {
			// Case c′.1: v < (1-ε)z ⇒ i cannot be in F*.
			d.traceCase("D.c'1", rep)
			d.moveToV3(i)
		} else {
			// Case c′.2: also observed above u_r ⇒ S1∩S2 ⇒ SUB.
			d.traceCase("D.c'2", rep)
			// Align the node's tag with its S′1 membership before
			// the SUB entry broadcast retags the disbanded S′2.
			d.s1[i] = true
			d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
			d.startSub(i)
		}
	default: // i ∈ V2 \ (S1 ∪ S2)
		if rep.Dir == filter.DirUp {
			// Case b: v > u_r.
			if d.part.size[classV1]+len(d.s1)+1 > d.k {
				// b.1: more than k nodes certified above u_r.
				d.traceCase("D.b1", rep)
				d.halveUpper()
			} else {
				// b.2: record i in S1.
				d.traceCase("D.b2", rep)
				d.s1[i] = true
				d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
				d.refreshOutput()
			}
		} else {
			// Case b′: v < ℓ_r.
			if d.part.size[classV3]+len(d.s2)+1 > d.c.N()-d.k {
				// b′.1: more than n-k nodes certified below ℓ_r.
				d.traceCase("D.b'1", rep)
				d.halveLower()
			} else {
				// b′.2: record i in S2.
				d.traceCase("D.b'2", rep)
				d.s2[i] = true
				d.c.SetTagFilter(i, wire.TagV2S2, filter.Make(d.zLowC, d.ur()))
				d.refreshOutput()
			}
		}
	}
	if d.gen != gen || !d.active || d.sub != nil {
		return
	}
	d.checkTopKSwitch()
}

// halveLower sets L_{r+1} to the lower half of L_r and disbands S2
// (cases a and b′.1).
func (d *Dense) halveLower() {
	d.l = d.l.LowerHalf()
	d.Halvings++
	clear(d.s2)
	d.advanceRound( /* disbandS2 */ true, false)
}

// halveUpper sets L_{r+1} to the upper half of L_r and disbands S1
// (cases a′ and b.1).
func (d *Dense) halveUpper() {
	d.l = d.l.UpperHalf()
	d.Halvings++
	clear(d.s1)
	d.advanceRound(false /* disbandS1 */, true)
}

// advanceRound ends the protocol if L is empty, otherwise opens round r+1:
// one broadcast retags the disbanded side and installs the new round's
// filters for every tag.
func (d *Dense) advanceRound(disbandS2, disbandS1 bool) {
	if d.Trace != nil {
		d.Trace("advanceRound L=%v disbandS2=%v disbandS1=%v", d.l, disbandS2, disbandS1)
	}
	if d.l.Empty() {
		d.endEpoch()
		return
	}
	d.round++
	rule := d.freshRoundRule()
	if disbandS2 {
		rule.WithRetag(wire.TagV2S2, wire.TagV2)
		rule.WithRetag(wire.TagV2S12, wire.TagV2S1)
	}
	if disbandS1 {
		rule.WithRetag(wire.TagV2S1, wire.TagV2)
		rule.WithRetag(wire.TagV2S12, wire.TagV2S2)
	}
	d.roundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// freshRoundRule returns the reusable broadcast rule, reset to empty.
// Engines apply rules synchronously (see cluster.Cluster.BroadcastRule), so
// one rule object serves every round broadcast.
func (d *Dense) freshRoundRule() *wire.FilterRule {
	d.roundRule = wire.FilterRule{}
	return &d.roundRule
}

// roundFilters installs the step-2 filter table for the current round.
func (d *Dense) roundFilters(rule *wire.FilterRule) {
	lr, ur := d.lr(), d.ur()
	rule.With(wire.TagV1, filter.AtLeast(lr)).
		With(wire.TagV2S1, filter.Make(lr, d.zUpper)).
		With(wire.TagV2, filter.Make(lr, ur)).
		With(wire.TagV2S2, filter.Make(d.zLowC, ur)).
		With(wire.TagV3, filter.AtMost(ur))
}

// moveToV1 moves i out of V2 (and any S-sets) into V1.
func (d *Dense) moveToV1(i int) {
	if d.Trace != nil {
		d.Trace("moveToV1 node=%d", i)
	}
	d.leaveV2(i, classV1)
	d.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(d.lr()))
	d.refreshOutput()
}

// moveToV3 moves i out of V2 into V3; the upper endpoint is the current
// context's u (u_r, or u′_{r′} while SUBPROTOCOL runs).
func (d *Dense) moveToV3(i int) {
	if d.Trace != nil {
		d.Trace("moveToV3 node=%d", i)
	}
	d.leaveV2(i, classV3)
	up := d.ur()
	if d.sub != nil {
		up = d.sub.ur(d)
	}
	d.c.SetTagFilter(i, wire.TagV3, filter.AtMost(up))
	d.refreshOutput()
}

// leaveV2 reclassifies the V2 node i as to and drops it from every S-set.
func (d *Dense) leaveV2(i int, to class) {
	d.part.move(i, to)
	delete(d.s1, i)
	delete(d.s2, i)
	if d.sub != nil {
		delete(d.sub.s1, i)
		delete(d.sub.s2, i)
	}
}

// checkTopKSwitch implements case (d)/(e): when V2 is fully classified —
// k nodes certified above and n-k below — the unique-output regime holds
// and the controller switches to TOP-K-PROTOCOL.
func (d *Dense) checkTopKSwitch() {
	if d.sub != nil {
		return // sub has its own check
	}
	inter := intersects(d.s1, d.s2)
	if !inter && d.part.size[classV1]+len(d.s1) == d.k && d.part.size[classV3]+len(d.s2) == d.c.N()-d.k {
		d.switchTopK()
	}
}

// refreshOutput recomputes F(t) = V1 ∪ (S1\S2) ∪ fill from V2\(S1∪S2);
// during SUBPROTOCOL the primed sets take over (Lemma 5.4's output — and
// S′1\S′2 ∪ (S′1∩S′2) = S′1). If no valid output of size k exists the dense
// premise broke and the epoch ends. All buffers are reused; V1 and the
// S-sets are disjoint subsets of the partition, so concatenation needs no
// dedup, the partition enumerates in id order, and sorting the result makes
// it independent of the S-sets' map iteration order.
func (d *Dense) refreshOutput() {
	s1, s2 := d.s1, d.s2
	if d.sub != nil {
		s1, s2 = d.sub.s1, d.sub.s2
	}
	take := d.part.appendIDs(d.takeBuf[:0], classV1)
	for i := range s1 {
		if d.sub != nil || !s2[i] {
			take = append(take, i)
		}
	}
	d.takeBuf = take
	if len(take) > d.k {
		d.endEpoch()
		return
	}
	fill := d.fillBuf[:0]
	for _, i := range d.part.members {
		if d.part.in(i, classV2) && !s1[i] && !s2[i] {
			fill = append(fill, i)
		}
	}
	d.fillBuf = fill
	need := d.k - len(take)
	if need > len(fill) {
		d.endEpoch()
		return
	}
	out := append(d.outBuf[:0], take...)
	out = append(out, fill[:need]...)
	slices.Sort(out)
	d.outBuf = out
	d.out = out
}

// --- small set helpers ---

// newIDSet returns an empty S-set with room for a typical neighbourhood's
// handful of ids. The size hint matters: the runtime defers the storage of a
// map made without one to its first insert, which would fall in some later
// step instead of in construction.
func newIDSet() map[int]bool { return make(map[int]bool, 16) }

// sortedIDs returns m's keys in ascending order (trace lines only).
func sortedIDs(m map[int]bool) []int {
	ids := make([]int, 0, len(m))
	for i := range m {
		ids = append(ids, i)
	}
	slices.Sort(ids)
	return ids
}

func intersects(a, b map[int]bool) bool {
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	for i := range small {
		if big[i] {
			return true
		}
	}
	return false
}

// copySetInto clears dst and fills it with src's members.
func copySetInto(dst, src map[int]bool) {
	clear(dst)
	for i := range src {
		dst[i] = true
	}
}
