package protocol

import (
	"fmt"

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

	part partition // V1 / V2 / V3, with S1/S2 and S′1/S′2 as node bits

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
	// dense premise broke). NewDense sets it to Start, so a standalone
	// Dense opens its next epoch itself; a controller overrides it.
	OnEpochEnd func()
	// OnSwitchTopK is invoked when all of V2 is classified (case (d)):
	// the unique-output regime applies. NewDense sets it to Start, the
	// controller overrides it to hand over to TOP-K-PROTOCOL.
	//
	// With both defaults, a standalone Dense keeps running DENSEPROTOCOL
	// where the regime is no longer dense, and there it can output a node
	// clearly below v_k (seen at σ = 1 and at σ = k+1); only the
	// controller's hand-over keeps every output valid.
	OnSwitchTopK func()

	// SubCalls counts SUBPROTOCOL invocations (Lemma 5.3's factor).
	SubCalls int64
	// Halvings counts L halvings across the epoch history.
	Halvings int64

	rules ruleScratch
	// Reusable working memory: the Start probe, the output buffer, the
	// epoch-opening and round-broadcast rules, and the persistent
	// SUBPROTOCOL state.
	probe                []wire.Report
	outBuf               []int
	resetRule, roundRule wire.FilterRule
	subStore             subState
}

// NewDense returns the Section 5.2 monitor core.
func NewDense(c cluster.Cluster, k int, e eps.Eps) *Dense {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: Dense needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	if e.IsZero() {
		panic("protocol: Dense needs ε > 0; use ExactMid for the exact problem")
	}
	d := &Dense{
		c: c, k: k, e: e,
		part:      newPartition(c.N()),
		rules:     newRuleScratch(),
		resetRule: resetAllTags(wire.TagV3),
		outBuf:    make([]int, 0, k),
	}
	d.OnEpochEnd, d.OnSwitchTopK = d.Start, d.Start
	return d
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
	d.z = z
	d.zUpper = d.e.GrowFloor(z)
	d.zLowC = d.e.ShrinkCeil(z)

	high := d.c.Collect(wire.InRange(d.zUpper+1, filter.Inf))
	mid := d.c.Collect(wire.InRange(d.zLowC, d.zUpper))

	d.part.classify(high, mid)
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
	for _, i := range d.part.members {
		if d.part.in(i, classV1) {
			d.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(d.lr()))
		}
	}
	for _, i := range d.part.members {
		if d.part.in(i, classV2) {
			d.c.SetTagFilter(i, wire.TagV2, filter.Make(d.lr(), d.ur()))
		}
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
	d.active = false
	d.OnEpochEnd()
}

// switchTopK deactivates the epoch and asks the controller to run
// TOP-K-PROTOCOL (case (d): the dense cluster dissolved).
func (d *Dense) switchTopK() {
	d.active = false
	d.OnSwitchTopK()
}

// handleDense is the step-3 case analysis of DENSEPROTOCOL.
func (d *Dense) handleDense(rep wire.Report) {
	gen := d.gen
	i := rep.ID
	switch in := d.part.sides(i, denseView); {
	case d.part.in(i, classV1):
		// Case a: i ∈ V1 fell below ℓ_r ⇒ ℓ* < ℓ_r.
		d.halveLower()
	case d.part.in(i, classV3):
		// Case a′: i ∈ V3 rose above u_r ⇒ ℓ* ≥ ℓ_r.
		d.halveUpper()
	case in == inS12:
		// An unresolved S1∩S2 node: SUBPROTOCOL decides it (the
		// re-entry rule, see maybeReenterSub).
		d.startSub(i)
	case in == inS1:
		if rep.Dir == filter.DirUp {
			// Case c.1: v > z/(1-ε) ⇒ i must be in F*.
			d.moveToV1(i)
		} else {
			// Case c.2: also observed below ℓ_r ⇒ S1∩S2 ⇒ SUB.
			d.part.join(i, denseView, inS2)
			d.startSub(i)
		}
	case in == inS2:
		if rep.Dir == filter.DirDown {
			// Case c′.1: v < (1-ε)z ⇒ i cannot be in F*.
			d.moveToV3(i)
		} else {
			// Case c′.2: also observed above u_r ⇒ S1∩S2 ⇒ SUB.
			// Align the node's tag with its S′1 membership before
			// the SUB entry broadcast retags the disbanded S′2.
			d.part.join(i, denseView, inS1)
			d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
			d.startSub(i)
		}
	default: // i ∈ V2 \ (S1 ∪ S2)
		if rep.Dir == filter.DirUp {
			// Case b: v > u_r.
			if d.part.size[classV1]+d.part.count(denseView, inS1)+1 > d.k {
				// b.1: more than k nodes certified above u_r.
				d.halveUpper()
			} else {
				// b.2: record i in S1.
				d.part.join(i, denseView, inS1)
				d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
				d.refreshOutput()
			}
		} else {
			// Case b′: v < ℓ_r.
			if d.part.size[classV3]+d.part.count(denseView, inS2)+1 > d.c.N()-d.k {
				// b′.1: more than n-k nodes certified below ℓ_r.
				d.halveLower()
			} else {
				// b′.2: record i in S2.
				d.part.join(i, denseView, inS2)
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
	d.part.disband(denseView, inS2)
	d.advanceRound( /* disbandS2 */ true, false)
}

// halveUpper sets L_{r+1} to the upper half of L_r and disbands S1
// (cases a′ and b.1).
func (d *Dense) halveUpper() {
	d.l = d.l.UpperHalf()
	d.Halvings++
	d.part.disband(denseView, inS1)
	d.advanceRound(false /* disbandS1 */, true)
}

// advanceRound ends the protocol if L is empty, otherwise opens round r+1:
// one broadcast retags the disbanded side and installs the new round's
// filters for every tag.
func (d *Dense) advanceRound(disbandS2, disbandS1 bool) {
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
	d.part.move(i, classV1)
	d.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(d.lr()))
	d.refreshOutput()
}

// moveToV3 moves i out of V2 into V3; the upper endpoint is the current
// context's u (u_r, or u′_{r′} while SUBPROTOCOL runs).
func (d *Dense) moveToV3(i int) {
	d.part.move(i, classV3)
	up := d.ur()
	if d.sub != nil {
		up = d.sub.ur(d)
	}
	d.c.SetTagFilter(i, wire.TagV3, filter.AtMost(up))
	d.refreshOutput()
}

// checkTopKSwitch implements case (d)/(e): when V2 is fully classified —
// k nodes certified above and n-k below — the unique-output regime holds
// and the controller switches to TOP-K-PROTOCOL.
func (d *Dense) checkTopKSwitch() {
	if d.sub == nil && d.settled(denseView) { // SUB has its own check
		d.switchTopK()
	}
}

// settled reports that the sets of view v classify all of V2 — k nodes
// certified above and n-k below, none on both sides — so the output is
// unique.
func (d *Dense) settled(v view) bool {
	return d.part.count(v, inS12) == 0 &&
		d.part.size[classV1]+d.part.count(v, inS1) == d.k &&
		d.part.size[classV3]+d.part.count(v, inS2) == d.c.N()-d.k
}

// refreshOutput recomputes F(t) = V1 ∪ (S1\S2) ∪ fill from V2\(S1∪S2);
// during SUBPROTOCOL the primed sets take over (Lemma 5.4's output — and
// S′1\S′2 ∪ (S′1∩S′2) = S′1). If no valid output of size k exists the dense
// premise broke and the epoch ends. The set sizes are counted, so both
// checks come first and one ascending pass over the partition writes the
// output in id order.
func (d *Dense) refreshOutput() {
	v := denseView
	if d.sub != nil {
		v = subView
	}
	t := &d.part.tally[v]
	take := d.part.size[classV1] + t[inS1]
	if v == subView {
		take += t[inS12]
	}
	need := d.k - take
	if need < 0 || need > t[0] {
		d.endEpoch()
		return
	}
	out := d.outBuf[:0]
	for _, i := range d.part.members {
		switch in := d.part.sides(i, v); {
		case d.part.in(i, classV1), in == inS1, in == inS12 && v == subView:
			out = append(out, i)
		case need > 0 && in == 0 && d.part.in(i, classV2):
			out = append(out, i)
			need--
		}
	}
	d.outBuf = out
	d.out = out
}
