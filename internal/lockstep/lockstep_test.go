package lockstep

import (
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/wire"
)

func advance(e *Engine, vals ...int64) { e.Advance(vals) }

func TestSweepSilentWhenNoMatch(t *testing.T) {
	e := New(8, 1)
	advance(e, 1, 2, 3, 4, 5, 6, 7, 8)
	// All filters are [0,∞]: nobody violates.
	if got := e.Sweep(wire.Violating()); got != nil {
		t.Fatalf("silent sweep returned %v", got)
	}
	if e.Counters().Total() != 0 {
		t.Errorf("silent sweep must be free, cost %d", e.Counters().Total())
	}
}

// TestSweepAlwaysFindsViolator: the EXISTENCE protocol is Las Vegas — with
// at least one matching node it always reports.
func TestSweepAlwaysFindsViolator(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		e := New(16, seed)
		vals := make([]int64, 16)
		for i := range vals {
			vals[i] = 10
		}
		e.Advance(vals)
		e.SetFilter(3, filter.Make(0, 5)) // node 3 violates
		senders := e.Sweep(wire.Violating())
		if len(senders) == 0 {
			t.Fatalf("seed %d: sweep missed the violator", seed)
		}
		found := false
		for _, s := range senders {
			if s.ID == 3 && s.Dir == filter.DirUp {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: violator 3 not among senders %v", seed, senders)
		}
	}
}

// TestSweepExpectedMessages reproduces Lemma 3.1's bound: over many trials
// the mean number of node messages stays O(1) (≤ 6 in the paper's analysis;
// we allow slack for the halt broadcast and finite-sample noise).
func TestSweepExpectedMessages(t *testing.T) {
	for _, b := range []int{1, 8, 64, 512} {
		const n = 512
		var total int64
		const trials = 300
		for trial := 0; trial < trials; trial++ {
			e := New(n, uint64(trial)*31+7)
			vals := make([]int64, n)
			e.Advance(vals)
			for i := 0; i < b; i++ {
				e.SetFilter(i, filter.Make(5, 10)) // value 0 violates down
			}
			before := e.Counters().Snapshot()
			// Exclude the b filter-setting unicasts from the measurement.
			senders := e.Sweep(wire.Violating())
			if len(senders) == 0 {
				t.Fatal("sweep missed violators")
			}
			total += e.Counters().Snapshot().Sub(before).Total()
		}
		mean := float64(total) / trials
		if mean > 8.0 {
			t.Errorf("b=%d: mean sweep cost %.2f exceeds O(1) bound", b, mean)
		}
	}
}

func TestDetectViolationPicksOne(t *testing.T) {
	e := New(8, 3)
	vals := make([]int64, 8)
	e.Advance(vals)
	e.SetFilter(2, filter.Make(5, 9))
	e.SetFilter(6, filter.Make(5, 9))
	rep, ok := e.DetectViolation()
	if !ok {
		t.Fatal("violation not detected")
	}
	if rep.ID != 2 && rep.ID != 6 {
		t.Errorf("picked non-violator %d", rep.ID)
	}
	if rep.Dir != filter.DirDown {
		t.Errorf("direction = %v", rep.Dir)
	}
}

func TestCollect(t *testing.T) {
	e := New(6, 5)
	e.Advance([]int64{10, 20, 30, 40, 50, 60})
	before := e.Counters().Snapshot()
	reps := e.Collect(wire.InRange(25, 45))
	if len(reps) != 2 || reps[0].ID != 2 || reps[1].ID != 3 {
		t.Fatalf("Collect = %v", reps)
	}
	cost := e.Counters().Snapshot().Sub(before)
	if cost.Total() != 3 { // 1 broadcast + 2 replies
		t.Errorf("collect cost %d, want 3", cost.Total())
	}
}

func TestProbeCost(t *testing.T) {
	e := New(4, 7)
	e.Advance([]int64{5, 6, 7, 8})
	rep := e.Probe(2)
	if rep.ID != 2 || rep.Value != 7 {
		t.Errorf("Probe = %+v", rep)
	}
	if e.Counters().Total() != 2 {
		t.Errorf("probe cost %d, want 2", e.Counters().Total())
	}
}

func TestBroadcastRuleAppliesToAll(t *testing.T) {
	e := New(4, 9)
	e.Advance([]int64{1, 2, 3, 4})
	e.SetTagFilter(1, wire.TagOut, filter.AtLeast(0))
	rule := wire.NewFilterRule().
		With(wire.TagOut, filter.AtLeast(2)).
		With(wire.TagNone, filter.AtMost(2))
	before := e.Counters().Snapshot()
	e.BroadcastRule(rule)
	if cost := e.Counters().Snapshot().Sub(before); cost.Total() != 1 {
		t.Errorf("broadcast cost %d, want 1", cost.Total())
	}
	fs := e.FiltersInto(nil)
	if fs[1] != filter.AtLeast(2) {
		t.Errorf("tagged node filter = %v", fs[1])
	}
	if fs[0] != filter.AtMost(2) || fs[3] != filter.AtMost(2) {
		t.Errorf("untagged filters = %v", fs)
	}
}

func TestMessageAccountingByKind(t *testing.T) {
	e := New(4, 6)
	e.Advance([]int64{1, 2, 3, 4})
	e.MaxFindInit(-1, true)
	e.MaxFindRaise(3, 4)
	e.MaxFindExclude(3)
	c := e.Counters()
	if c.ByChannel(metrics.Broadcast) != 3 {
		t.Errorf("broadcasts = %d", c.ByChannel(metrics.Broadcast))
	}
	if c.ByKind(wire.KindMaxFindRaise.String()) != 1 {
		t.Error("kind accounting missing")
	}
}
