package sketch

import (
	"reflect"
	"testing"
)

// decodeOps turns fuzz bytes into a bounded op sequence over a small item
// universe (small on purpose: collisions, evictions, and decrement rounds
// must actually happen). Each op consumes 3 bytes: item selector, delta
// selector, and an op selector that occasionally interleaves Estimate
// calls (which must never disturb state).
type fuzzOp struct {
	item  uint64
	delta int64
}

func decodeOps(data []byte) []fuzzOp {
	const maxOps = 4096
	var ops []fuzzOp
	for i := 0; i+2 < len(data) && len(ops) < maxOps; i += 3 {
		ops = append(ops, fuzzOp{
			item: uint64(data[i]) % 48,
			// Deltas include 0 and negatives, which Observe must ignore.
			delta: int64(int8(data[i+1])),
		})
	}
	return ops
}

// checkTracked asserts the enumeration contract: Tracked equals
// Heavy(capacity) as a set with equal Count and Err, and a summary that
// states an untracked estimate answers Estimate with it for every item of
// [0, universe) that Tracked does not list.
func checkTracked(t *testing.T, s Summary, universe uint64) {
	t.Helper()
	tracked := make(map[uint64]Counter)
	for _, c := range s.Tracked(nil) {
		if _, dup := tracked[c.Item]; dup {
			t.Fatalf("%s: Tracked lists item %d twice", s.Name(), c.Item)
		}
		tracked[c.Item] = c
	}
	heavy := s.Heavy(1<<20, nil)
	if len(heavy) != len(tracked) {
		t.Fatalf("%s: Tracked has %d counters, Heavy(all) %d", s.Name(), len(tracked), len(heavy))
	}
	for _, c := range heavy {
		if tracked[c.Item] != c {
			t.Fatalf("%s: Tracked says %+v, Heavy says %+v", s.Name(), tracked[c.Item], c)
		}
	}
	u, uniform := s.UntrackedEstimate()
	if !uniform {
		return
	}
	for item := uint64(0); item < universe; item++ {
		if _, ok := tracked[item]; ok {
			continue
		}
		if est, _ := s.Estimate(item); est != u {
			t.Fatalf("%s: untracked item %d estimates %d, UntrackedEstimate says %d", s.Name(), item, est, u)
		}
	}
}

// checkAgainstTruth asserts the per-sketch estimate invariants against the
// exact counts, and the enumeration contract. over is true for sketches
// that never under-estimate (Space-Saving, Count-Min), false for never-over
// (Misra-Gries).
func checkAgainstTruth(t *testing.T, s Summary, truth map[uint64]int64, over bool) {
	t.Helper()
	checkTracked(t, s, 48)
	for item := uint64(0); item < 48; item++ {
		f := truth[item]
		est, bound := s.Estimate(item)
		if f < est-bound || f > est+bound {
			t.Fatalf("%s: item %d true %d outside est %d +- %d", s.Name(), item, f, est, bound)
		}
		if over && est < f {
			t.Fatalf("%s: under-estimate item %d: est %d < true %d", s.Name(), item, est, f)
		}
		if !over && est > f {
			t.Fatalf("%s: over-estimate item %d: est %d > true %d", s.Name(), item, est, f)
		}
	}
}

// fuzzSummary drives one sketch through the decoded ops, checking the
// estimate invariants along the way and the Reset-replay contract at the
// end: Reset(seed) + identical replay must reproduce the identical Heavy
// snapshot, Total, and error bound (Reset idempotence / replay contract).
func fuzzSummary(t *testing.T, s Summary, data []byte, over bool) {
	ops := decodeOps(data)
	truth := make(map[uint64]int64)
	replay := func() {
		for i, op := range ops {
			s.Observe(op.item, op.delta)
			checkTracked(t, s, 48)
			if i%64 == 63 {
				// Interleaved reads must not disturb state.
				s.Estimate(op.item)
				s.Heavy(8, nil)
			}
		}
	}
	replay()
	for _, op := range ops {
		if op.delta > 0 {
			truth[op.item] += op.delta
		}
	}
	checkAgainstTruth(t, s, truth, over)
	if errorBound(s) < 0 {
		t.Fatalf("%s: negative error bound", s.Name())
	}

	h1, t1, e1 := s.Heavy(64, nil), s.Total(), errorBound(s)
	s.Reset(42)
	if s.Total() != 0 {
		t.Fatalf("%s: Total %d after Reset, want 0", s.Name(), s.Total())
	}
	if h := s.Heavy(64, nil); len(h) != 0 {
		t.Fatalf("%s: %d heavy items after Reset, want none", s.Name(), len(h))
	}
	checkTracked(t, s, 48)
	replay()
	h2, t2, e2 := s.Heavy(64, nil), s.Total(), errorBound(s)
	if !reflect.DeepEqual(h1, h2) || t1 != t2 || e1 != e2 {
		t.Fatalf("%s: Reset replay diverged:\n%v total=%d bound=%d\n%v total=%d bound=%d",
			s.Name(), h1, t1, e1, h2, t2, e2)
	}
}

// FuzzSpaceSaving fuzzes the Space-Saving invariants: no panics on any
// input, estimates never below the true count and never above it by more
// than the tracked bound, and Reset replay is byte-identical. Capacities
// are derived from the input so eviction pressure varies.
func FuzzSpaceSaving(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add(uint8(8), []byte{5, 10, 0, 5, 10, 0, 7, 1, 0, 9, 3, 0, 11, 2, 0})
	f.Add(uint8(2), []byte{1, 255, 0, 2, 128, 0, 3, 127, 0, 1, 0, 0})
	// One counter, weighted arrivals: decrement rounds that absorb an
	// arrival and ones that leave a remainder.
	f.Add(uint8(0), []byte{0, 5, 0, 1, 3, 0, 2, 9, 0, 0, 2, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, capSel uint8, data []byte) {
		capacity := int(capSel)%24 + 1
		fuzzSummary(t, NewSpaceSaving(capacity), data, true)
		// Misra-Gries shares the counter-table machinery; fuzz it in the
		// same session under the dual (never-over-estimate) invariant.
		fuzzSummary(t, NewMisraGries(capacity), data, false)
		// And replay the tape into the map-based reference, comparing
		// every estimate, the tracked set and Heavy after every op.
		m, r := NewMisraGries(capacity), newRefMisraGries(capacity)
		for _, op := range decodeOps(data) {
			m.Observe(op.item, op.delta)
			r.observe(op.item, op.delta)
			checkMisraGriesView(t, m, r, 48)
		}
	})
}

// FuzzCountMin fuzzes the Count-Min over-estimate invariant (estimates
// never below the true count, whatever the collisions), no panics, and
// Reset(seed) replay identity — including across the keeper.
func FuzzCountMin(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint64(1), []byte{})
	f.Add(uint8(0), uint8(0), uint64(7), []byte{1, 1, 0, 2, 1, 0, 3, 1, 0})
	f.Add(uint8(16), uint8(1), uint64(42), []byte{9, 100, 0, 9, 100, 0, 4, 50, 0})
	f.Fuzz(func(t *testing.T, widthSel, depthSel uint8, seed uint64, data []byte) {
		width := int(widthSel)%32 + 1
		depth := int(depthSel)%4 + 1
		track := int(widthSel)%8 + 1
		c := NewCountMin(width, depth, track, seed)
		ops := decodeOps(data)
		truth := make(map[uint64]int64)
		for _, op := range ops {
			c.Observe(op.item, op.delta)
			checkTracked(t, c, 48)
			if op.delta > 0 {
				truth[op.item] += op.delta
			}
		}
		for item := uint64(0); item < 48; item++ {
			est, _ := c.Estimate(item)
			if est < truth[item] {
				t.Fatalf("count-min under-estimates item %d: est %d < true %d", item, est, truth[item])
			}
		}
		h1, t1 := c.Heavy(track, nil), c.Total()
		c.Reset(seed)
		checkTracked(t, c, 48)
		for _, op := range ops {
			c.Observe(op.item, op.delta)
			checkTracked(t, c, 48)
		}
		h2, t2 := c.Heavy(track, nil), c.Total()
		if !reflect.DeepEqual(h1, h2) || t1 != t2 {
			t.Fatalf("count-min Reset replay diverged:\n%v total=%d\n%v total=%d", h1, t1, h2, t2)
		}
		// A different seed is a different sketch but the invariant holds.
		c.Reset(seed + 1)
		for _, op := range ops {
			c.Observe(op.item, op.delta)
		}
		for item := uint64(0); item < 48; item++ {
			est, _ := c.Estimate(item)
			if est < truth[item] {
				t.Fatalf("count-min (reseeded) under-estimates item %d: est %d < true %d", item, est, truth[item])
			}
		}
	})
}
