package sketch

import (
	"reflect"
	"testing"
)

// decodeOps turns fuzz bytes into a bounded op sequence over a small item
// universe (small on purpose: collisions, evictions, and decrement rounds
// must actually happen). Each op consumes 3 bytes: item selector, delta
// selector, and op selector: an Observe below 224, a read (Estimate,
// Heavy and Tracked, which must never disturb state) below 252, else a
// Reset with the item as its seed.
type fuzzOp struct {
	kind  opKind
	item  uint64
	delta int64
}

type opKind uint8

const (
	opObserve opKind = iota
	opRead
	opReset
)

func decodeOps(data []byte) []fuzzOp {
	const maxOps = 4096
	var ops []fuzzOp
	for i := 0; i+2 < len(data) && len(ops) < maxOps; i += 3 {
		op := fuzzOp{
			item: uint64(data[i]) % 48,
			// Deltas include 0 and negatives, which Observe must ignore.
			delta: int64(int8(data[i+1])),
		}
		switch sel := data[i+2]; {
		case sel >= 252:
			op.kind = opReset
		case sel >= 224:
			op.kind = opRead
		}
		ops = append(ops, op)
	}
	return ops
}

// apply runs one decoded op on s.
func (op fuzzOp) apply(s Summary) {
	switch op.kind {
	case opObserve:
		s.Observe(op.item, op.delta)
	case opRead:
		s.Estimate(op.item)
		s.Heavy(int(op.delta&63), nil)
		s.Tracked(nil)
	case opReset:
		s.Reset(op.item)
	}
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
// (Misra-Gries). Count-Min's two-sided bound holds only with probability
// 1-e^-depth per item, so on adversarial tapes only its one side is checked.
func checkAgainstTruth(t *testing.T, s Summary, truth map[uint64]int64, over bool) {
	t.Helper()
	checkTracked(t, s, 48)
	_, hashed := s.(*CountMin)
	for item := uint64(0); item < 48; item++ {
		f := truth[item]
		est, bound := s.Estimate(item)
		if !hashed && (f < est-bound || f > est+bound) {
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
// estimate invariants against the exact counts (reset with the summary)
// after every op, and the Reset-replay contract at the end: Reset(seed),
// seed being the one s was built with, + identical replay must reproduce
// the identical Heavy snapshot, Total, and error bound.
func fuzzSummary(t *testing.T, s Summary, seed uint64, ops []fuzzOp, over bool) {
	truth := make(map[uint64]int64)
	replay := func() {
		clear(truth)
		for _, op := range ops {
			op.apply(s)
			switch {
			case op.kind == opReset:
				clear(truth)
			case op.kind == opObserve && op.delta > 0:
				truth[op.item] += op.delta
			}
			checkAgainstTruth(t, s, truth, over)
		}
	}
	replay()
	if errorBound(s) < 0 {
		t.Fatalf("%s: negative error bound", s.Name())
	}

	h1, t1, e1 := s.Heavy(64, nil), s.Total(), errorBound(s)
	s.Reset(seed)
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
// than the tracked bound, and Reset replay is byte-identical; then it
// replays the tape into the map-based references, comparing every
// estimate, the tracked set and Heavy after every op. Capacities are
// derived from the input so eviction pressure varies.
func FuzzSpaceSaving(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add(uint8(8), []byte{5, 10, 0, 5, 10, 0, 7, 1, 0, 9, 3, 0, 11, 2, 0})
	f.Add(uint8(2), []byte{1, 255, 0, 2, 128, 0, 3, 127, 0, 1, 0, 0})
	// One counter, weighted arrivals: decrement rounds that absorb an
	// arrival and ones that leave a remainder.
	f.Add(uint8(0), []byte{0, 5, 0, 1, 3, 0, 2, 9, 0, 0, 2, 0, 1, 1, 0})
	// Two counters: both at count 1 form the floor; two hits empty it and a
	// read follows at once, then an eviction, a read, a Reset and a read.
	f.Add(uint8(1), []byte{3, 1, 0, 4, 1, 0, 3, 2, 0, 4, 2, 0, 9, 2, 224, 5, 1, 0, 5, 2, 224, 7, 0, 252, 3, 1, 224})
	// Three counters; an eviction takes the last slot at the floor's level,
	// then a read.
	f.Add(uint8(2), []byte{1, 1, 0, 2, 2, 0, 3, 2, 0, 4, 1, 0, 1, 40, 224, 5, 1, 0, 6, 1, 224})
	universe := make([]uint64, 48) // decodeOps' items
	for i := range universe {
		universe[i] = uint64(i)
	}
	f.Fuzz(func(t *testing.T, capSel uint8, data []byte) {
		capacity := int(capSel)%24 + 1
		ops := decodeOps(data)
		fuzzSummary(t, NewSpaceSaving(capacity), 0, ops, true)
		// Misra-Gries shares the counter-table machinery; fuzz it in the
		// same session under the dual (never-over-estimate) invariant.
		fuzzSummary(t, NewMisraGries(capacity), 0, ops, false)
		s, rs := NewSpaceSaving(capacity), newRefSpaceSaving(capacity)
		m, rm := NewMisraGries(capacity), newRefMisraGries(capacity)
		for _, op := range ops {
			op.apply(s)
			op.apply(m)
			switch op.kind {
			case opObserve:
				rs.observe(op.item, op.delta)
				rm.observe(op.item, op.delta)
			case opReset:
				rs, rm = newRefSpaceSaving(capacity), newRefMisraGries(capacity)
			}
			checkSpaceSavingView(t, s, rs, universe)
			checkMisraGriesView(t, m, rm, 48)
		}
	})
}

// FuzzCountMin fuzzes the Count-Min over-estimate invariant (estimates
// never below the true count, whatever the collisions), no panics, Reset
// replay identity — including across the keeper — and the keeper against
// refKeeper after every op. A depth selector of 128 or more builds
// NewCountMin's own shape for capacity widthSel+1 (1 to 256); below it
// the shape is arbitrary.
func FuzzCountMin(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint64(1), []byte{})
	f.Add(uint8(0), uint8(0), uint64(7), []byte{1, 1, 0, 2, 1, 0, 3, 1, 0})
	f.Add(uint8(16), uint8(1), uint64(42), []byte{9, 100, 0, 9, 100, 0, 4, 50, 0})
	// A two-item keeper whose floor empties on a hit, then a read.
	f.Add(uint8(1), uint8(0), uint64(3), []byte{1, 1, 0, 2, 1, 0, 1, 3, 0, 2, 3, 0, 5, 9, 224, 2, 1, 252, 2, 1, 224})
	// Capacity 1: one cell and a one-slot keeper that every new item takes
	// over; a read, a Reset and a read.
	f.Add(uint8(0), uint8(128), uint64(5), []byte{1, 2, 0, 2, 1, 0, 1, 1, 0, 3, 4, 224, 2, 2, 0, 9, 0, 252, 4, 1, 0, 4, 1, 224})
	// Capacity 256: four rows of 256 cells, a 64-slot keeper.
	f.Add(uint8(255), uint8(128), uint64(11), []byte{1, 9, 0, 2, 8, 0, 3, 7, 0, 47, 6, 0, 1, 5, 224, 30, 1, 0, 5, 0, 252, 6, 3, 0, 6, 3, 224})
	f.Fuzz(func(t *testing.T, widthSel, depthSel uint8, seed uint64, data []byte) {
		build := func() *CountMin {
			if depthSel >= 128 {
				return NewCountMin(int(widthSel)+1, seed)
			}
			return newCountMin(int(widthSel)%32+1, int(depthSel)%4+1, int(widthSel)%8+1, seed)
		}
		ops := decodeOps(data)
		fuzzSummary(t, build(), seed, ops, true)
		c := build()
		track := c.cap
		r := &refKeeper{track: track, est: make(map[uint64]int64)}
		for _, op := range ops {
			op.apply(c)
			switch {
			case op.kind == opReset:
				r = &refKeeper{track: track, est: make(map[uint64]int64)}
			case op.kind == opObserve && op.delta > 0:
				est, _ := c.Estimate(op.item)
				r.observe(op.item, est)
			}
			checkCounters(t, c, r.heavy(errorBound(c)), track+1)
		}
	})
}
