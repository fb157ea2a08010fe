package protocol

import (
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// subState is the nested SUBPROTOCOL of Section 5.2, entered when some V2
// node has been observed both above u_r and below ℓ_r (it sits in S1∩S2, so
// DENSEPROTOCOL cannot decide whether it belongs to the optimal output).
// SUBPROTOCOL bisects L′ ⊆ [(1-ε)z, ℓ_r] — the lower part of the guess
// interval — until it either halves the outer L correctly or moves one node
// out of V2 into V1 or V3 (Lemma 5.6). Its sets S′1 (initialised to S1) and
// S′2 (initialised to ∅) are the partition's sub view.
type subState struct {
	l     filter.Interval // L′
	round int

	initiator int
	// lastDown is the last S′1∩S′2 node that violated downwards; it is the
	// node moved to V3 when L′ empties on an upper-half move.
	lastDown int
}

// lr is ℓ′_{r′}, the midpoint of L′.
func (s *subState) lr() int64 { return s.l.Mid() }

// ur is u′_{r′} = ⌊ℓ′_{r′}/(1-ε)⌋.
func (s *subState) ur(d *Dense) int64 { return d.e.GrowFloor(s.l.Mid()) }

// startSub opens SUBPROTOCOL for the S1∩S2 node initiator: L′ is the part
// of L at or below ℓ_r, S′1 copies S1, S′2 starts empty. One broadcast
// retags the disbanded S′2 view and installs the round-0 filters.
func (d *Dense) startSub(initiator int) {
	d.SubCalls++
	hi := d.lr()
	if hi > d.l.Hi {
		hi = d.l.Hi
	}
	s := &d.subStore
	s.l = filter.Make(d.l.Lo, hi)
	s.round = 0
	d.part.disband(subView, inS2)
	d.part.copyS1()
	s.initiator = initiator
	s.lastDown = -1
	d.sub = s
	rule := d.freshRoundRule().
		WithRetag(wire.TagV2S2, wire.TagV2).
		WithRetag(wire.TagV2S12, wire.TagV2S1)
	d.subRoundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// subRoundFilters installs the SUBPROTOCOL step-2 filter table. V1 keeps its
// DENSE filter ("F′_i := F_i").
func (d *Dense) subRoundFilters(rule *wire.FilterRule) {
	s := d.sub
	lr := d.lr()
	slr, sur := s.lr(), s.ur(d)
	rule.With(wire.TagV2S1, filter.Make(lr, d.zUpper)).
		With(wire.TagV2S12, filter.Make(slr, d.zUpper)).
		With(wire.TagV2, filter.Make(lr, sur)).
		With(wire.TagV2S2, filter.Make(d.zLowC, sur)).
		With(wire.TagV3, filter.AtMost(sur))
}

// handleSub is the step-3 case analysis of SUBPROTOCOL.
func (d *Dense) handleSub(rep wire.Report) {
	gen := d.gen
	s := d.sub
	i := rep.ID
	switch in := d.part.sides(i, subView); {
	case d.part.in(i, classV1):
		// Case a: a V1 node fell below ℓ_r ⇒ terminate; the outer L
		// moves to its lower half.
		d.subEnd()
		d.halveLower()
	case d.part.in(i, classV3):
		// Case a′: a V3 node rose above u′ ⇒ L′ → upper half, S′1 := S1.
		d.subUpperHalf()
	case in == inS12:
		if rep.Dir == filter.DirUp {
			// Case d.1: v > z/(1-ε) ⇒ i joins V1 and SUB terminates.
			d.subEnd()
			d.moveToV1(i)
		} else {
			// Case d.2: v < ℓ′ ⇒ L′ → lower half, S′2 := ∅.
			s.lastDown = i
			d.subLowerHalf(i)
		}
	case in == inS1:
		if rep.Dir == filter.DirUp {
			// Case c.1: v > z/(1-ε) ⇒ move i to V1 (SUB continues).
			d.moveToV1(i)
		} else {
			// Case c.2: i joins S′2, entering S′1∩S′2.
			d.part.join(i, subView, inS2)
			d.c.SetTagFilter(i, wire.TagV2S12, filter.Make(s.lr(), d.zUpper))
			d.refreshOutput()
		}
	case in == inS2:
		if rep.Dir == filter.DirDown {
			// Case c′.1: v < (1-ε)z ⇒ move i to V3 (SUB continues).
			d.moveToV3(i)
		} else {
			// Case c′.2: i joins S′1, entering S′1∩S′2.
			d.part.join(i, subView, inS1)
			d.c.SetTagFilter(i, wire.TagV2S12, filter.Make(s.lr(), d.zUpper))
			d.refreshOutput()
		}
	default: // i ∈ V2 \ (S′1 ∪ S′2)
		if rep.Dir == filter.DirUp {
			// Case b: v > u′.
			if d.part.size[classV1]+d.part.count(subView, inS1)+1 > d.k {
				// b.1: more than k nodes certified above.
				d.subUpperHalf()
			} else {
				// b.2: record i in S′1.
				d.part.join(i, subView, inS1)
				d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
				d.refreshOutput()
			}
		} else {
			// Case b′: v < ℓ_r.
			if d.part.size[classV3]+d.part.count(subView, inS2)+1 > d.c.N()-d.k {
				// b′.1: terminate; outer L → lower half.
				d.subEnd()
				d.halveLower()
			} else {
				// b′.2: record i in S′2.
				d.part.join(i, subView, inS2)
				d.c.SetTagFilter(i, wire.TagV2S2, filter.Make(d.zLowC, s.ur(d)))
				d.refreshOutput()
			}
		}
	}
	if d.gen != gen || !d.active {
		return
	}
	d.checkSubTopKSwitch()
	if d.gen != gen || !d.active {
		return
	}
	d.maybeReenterSub()
}

// subUpperHalf implements cases a′ and b.1: L′ → upper half and S′1 := S1.
// If L′ empties, SUB terminates moving the last S′1∩S′2 down-violator (or
// the initiator) to V3 — it observed a value below every surviving ℓ*
// candidate, so it cannot be in F* (Lemma 5.6).
func (d *Dense) subUpperHalf() {
	s := d.sub
	s.l = s.l.UpperHalf()
	// Reset S′1 to S1: nodes recorded above an older, lower u′ lose that
	// certification (their tag reverts per their S′2 status).
	for _, i := range d.part.members {
		in := d.part.sides(i, subView)
		if in&inS1 == 0 || d.part.sides(i, denseView)&inS1 != 0 {
			continue // not in S′1 \ S1
		}
		if in&inS2 != 0 {
			d.c.SetTagFilter(i, wire.TagV2S2, filter.Make(d.zLowC, s.ur(d)))
		} else {
			d.c.SetTagFilter(i, wire.TagV2, filter.Make(d.lr(), s.ur(d)))
		}
	}
	d.part.copyS1()
	if s.l.Empty() {
		victim := s.lastDown
		if victim < 0 || !d.part.in(victim, classV2) {
			victim = s.initiator
		}
		d.subEnd()
		if d.part.in(victim, classV2) {
			d.moveToV3(victim)
		} else {
			d.refreshOutput()
		}
		return
	}
	s.round++
	rule := d.freshRoundRule()
	d.subRoundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// subLowerHalf implements case d.2: L′ → lower half and S′2 := ∅. If L′
// empties, SUB terminates moving the violator to V3.
func (d *Dense) subLowerHalf(violator int) {
	s := d.sub
	s.l = s.l.LowerHalf()
	if s.l.Empty() {
		// Terminate before disbanding S′2: subEnd diffs the primed sets
		// against the DENSE sets to restore tags, so they must still
		// describe the tags physically on the nodes.
		d.subEnd()
		if d.part.in(violator, classV2) {
			d.moveToV3(violator)
		} else {
			d.refreshOutput()
		}
		return
	}
	d.part.disband(subView, inS2)
	s.round++
	rule := d.freshRoundRule().
		WithRetag(wire.TagV2S2, wire.TagV2).
		WithRetag(wire.TagV2S12, wire.TagV2S1)
	d.subRoundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// subEnd closes SUBPROTOCOL: it restores every V2 node's tag to its
// DENSE-level classification (unicasts for the differing ones) and
// rebroadcasts the DENSE round filters so V3/V2 filters widen back from u′
// to u_r.
func (d *Dense) subEnd() {
	d.sub = nil
	// A node outside V2 is in no S-set, so only V2 nodes can differ.
	for _, i := range d.part.members {
		cur := classTag(d.part.sides(i, subView))
		if want := classTag(d.part.sides(i, denseView)); cur != want {
			d.c.SetTagFilter(i, want, d.denseFilterFor(want))
		}
	}
	rule := d.freshRoundRule()
	d.roundFilters(rule)
	d.c.BroadcastRule(rule)
}

// classTag maps a V2 node's S1/S2 membership to its tag.
func classTag(in sides) wire.Tag {
	return [...]wire.Tag{wire.TagV2, wire.TagV2S1, wire.TagV2S2, wire.TagV2S12}[in]
}

// denseFilterFor returns the DENSE step-2 filter for a tag. S1∩S2 nodes
// have no DENSE filter — SUBPROTOCOL is re-entered for them immediately —
// so they transiently hold the widest neighborhood interval.
func (d *Dense) denseFilterFor(t wire.Tag) filter.Interval {
	lr, ur := d.lr(), d.ur()
	switch t {
	case wire.TagV1:
		return filter.AtLeast(lr)
	case wire.TagV2S1:
		return filter.Make(lr, d.zUpper)
	case wire.TagV2S2:
		return filter.Make(d.zLowC, ur)
	case wire.TagV2S12:
		return filter.Make(d.zLowC, d.zUpper)
	case wire.TagV3:
		return filter.AtMost(ur)
	default:
		return filter.Make(lr, ur)
	}
}

// checkSubTopKSwitch is SUBPROTOCOL's case e, identical in spirit to the
// DENSE case (d) check but over the primed sets.
func (d *Dense) checkSubTopKSwitch() {
	if d.sub != nil && d.settled(subView) {
		d.subEnd()
		d.switchTopK()
	}
}

// maybeReenterSub is the DENSE re-entry rule. The paper invokes SUBPROTOCOL
// for the node whose violation put it into S1∩S2 and does not say what
// happens when that run ends having resolved a different node, leaving one
// still in both sets: DENSEPROTOCOL's case analysis has no filter for such a
// node. This reproduction reads the paper as re-invoking SUBPROTOCOL, on
// the smallest such id, until S1∩S2 is empty — here after every SUB run,
// and in handleDense when an unresolved node violates again. Every SUB run
// either halves L (disbanding one S-side, emptying the intersection) or
// moves a node out of V2, so re-entry terminates.
func (d *Dense) maybeReenterSub() {
	if !d.active || d.sub != nil || d.part.count(denseView, inS12) == 0 {
		return
	}
	for _, i := range d.part.members {
		if d.part.sides(i, denseView) == inS12 {
			d.startSub(i)
			return
		}
	}
}
