package protocol_test

import (
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/sim"
	"topkmon/internal/stream"

	"topkmon/internal/cluster"
)

// TestTopKPhaseProgression drives TOP-K-PROTOCOL through A1 → A2 → A3 → P4
// with an ascending adversary and counts the violations each phase
// processes. The test runs HandleStep's violation loop itself, so it can
// read the phase before each violation is handled.
func TestTopKPhaseProgression(t *testing.T) {
	const k, rest = 2, 5
	e := eps.MustNew(1, 8)
	gen := stream.NewClimber(k, rest, 1<<30)
	eng := lockstep.New(gen.N(), 9)
	mon := protocol.NewTopKProto(eng, k, e)
	pv := map[protocol.Phase]int64{}
	for ts := 0; ts < 400; ts++ {
		gen.ObserveFilters(eng.FiltersInto(nil), mon.Output())
		vals := gen.Next(ts)
		eng.Advance(vals)
		if ts == 0 {
			mon.Start()
		} else {
			for rep, ok := eng.DetectViolation(); ok; rep, ok = eng.DetectViolation() {
				pv[mon.CurrentPhase()]++
				mon.Handle(rep)
			}
		}
		truth := oracle.Compute(vals, k, e)
		if err := truth.ValidateEps(mon.Output()); err != nil {
			t.Fatalf("step %d: %v", ts, err)
		}
		eng.EndStep()
	}
	t.Logf("phase violations: %v over %d epochs", pv, mon.Epochs())
	for _, ph := range []protocol.Phase{protocol.PhaseA1, protocol.PhaseA2, protocol.PhaseA3, protocol.PhaseP4} {
		if pv[ph] == 0 {
			t.Errorf("phase %v never processed a violation", ph)
		}
	}
	if mon.Epochs() < 2 {
		t.Errorf("climber must force repeated epochs, got %d", mon.Epochs())
	}
}

// TestTopKA1TerminatesOnDownViolation pins the Lemma 4.1 rule: a violation
// from above ends phase A1. Without the exit, A1's separator ℓ₀+2^(2^r) can
// exceed u and a descending output node violates forever (the violation
// drain would panic).
func TestTopKA1TerminatesOnDownViolation(t *testing.T) {
	const k, rest = 4, 11
	e := eps.MustNew(1, 8)
	gen := stream.NewDescender(k, rest, 1<<30)
	_, err := sim.Run(sim.Config{
		K: k, Eps: e, Steps: 300, Seed: 31,
		Gen: gen,
		NewMonitor: func(c cluster.Cluster) protocol.Monitor {
			return protocol.NewTopKProto(c, k, e)
		},
		Validate: sim.ValidateEps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Cycles < 2 {
		t.Errorf("descender should complete cycles against TOP-K, got %d", gen.Cycles)
	}
}

// TestTopKDescenderCheaperThanExact quantifies the Section 4 win on the
// descending attack: per epoch, the full phase machinery pays O(1)-ish
// while arithmetic bisection pays ~log Δ.
func TestTopKDescenderCheaperThanExact(t *testing.T) {
	const k, rest, steps = 4, 11, 1000
	e := eps.MustNew(1, 8)
	perEpoch := func(mk func(cluster.Cluster) protocol.Monitor, validate sim.Validate) float64 {
		rep, err := sim.Run(sim.Config{
			K: k, Eps: e, Steps: steps, Seed: 17,
			Gen:        stream.NewDescender(k, rest, 1<<32),
			NewMonitor: mk,
			Validate:   validate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(rep.Messages.Total()) / float64(rep.Epochs)
	}
	topk := perEpoch(func(c cluster.Cluster) protocol.Monitor {
		return protocol.NewTopKProto(c, k, e)
	}, sim.ValidateEps)
	exact := perEpoch(func(c cluster.Cluster) protocol.Monitor {
		return protocol.NewExactMid(c, k)
	}, sim.ValidateExact)
	if topk*1.2 >= exact {
		t.Errorf("TOP-K per-epoch (%.1f) should be well below exact bisection (%.1f) at Δ=2^32",
			topk, exact)
	}
	t.Logf("per-epoch: topk=%.1f exact=%.1f", topk, exact)
}

// TestTopKEpochRestartsProduceValidFilters: after any epoch restart the
// filter set must be valid for the current values (no lingering violation).
func TestTopKEpochRestartsProduceValidFilters(t *testing.T) {
	const k = 3
	e := eps.MustNew(1, 4)
	gen := stream.NewJumps(10, 100, 100000, 5)
	eng := lockstep.New(10, 77)
	mon := protocol.NewTopKProto(eng, k, e)
	for ts := 0; ts < 300; ts++ {
		vals := gen.Next(ts)
		eng.Advance(vals)
		if ts == 0 {
			mon.Start()
		} else {
			mon.HandleStep()
		}
		filters := eng.FiltersInto(nil)
		for i, v := range vals {
			if filters[i].Violation(v) != filter.DirNone {
				t.Fatalf("step %d: node %d value %d outside filter %v after quiescence",
					ts, i, v, filters[i])
			}
		}
		out := map[int]bool{}
		for _, id := range mon.Output() {
			out[id] = true
		}
		if !filter.SetValid(vals, filters, out, e) {
			t.Fatalf("step %d: filter set invalid per Observation 2.2", ts)
		}
		eng.EndStep()
	}
}
