package sketch

import (
	"reflect"
	"testing"
)

// decodeOps turns fuzz bytes into a bounded op sequence over a small item
// universe (small on purpose: evictions and decrement rounds must
// actually happen). Each op consumes 3 bytes: item selector, delta
// selector, and op selector: an Observe below 224, a read (Estimate,
// Heavy and Tracked, which must never disturb state) below 252, else a
// Reset.
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
func (op fuzzOp) apply(s *SpaceSaving) {
	switch op.kind {
	case opObserve:
		s.Observe(op.item, op.delta)
	case opRead:
		s.Estimate(op.item)
		s.Heavy(int(op.delta&63), nil)
		s.Tracked(nil)
	case opReset:
		s.Reset()
	}
}

// checkTracked asserts the enumeration contract: Tracked equals
// Heavy(capacity) as a set with equal Count and Err.
func checkTracked(t *testing.T, s *SpaceSaving) {
	t.Helper()
	tracked := make(map[uint64]Counter)
	for _, c := range s.Tracked(nil) {
		if _, dup := tracked[c.Item]; dup {
			t.Fatalf("Tracked lists item %d twice", c.Item)
		}
		tracked[c.Item] = c
	}
	heavy := s.Heavy(1<<20, nil)
	if len(heavy) != len(tracked) {
		t.Fatalf("Tracked has %d counters, Heavy(all) %d", len(tracked), len(heavy))
	}
	for _, c := range heavy {
		if tracked[c.Item] != c {
			t.Fatalf("Tracked says %+v, Heavy says %+v", tracked[c.Item], c)
		}
	}
}

// checkAgainstTruth asserts the estimate invariant against the exact
// counts, est <= true <= est + bound, and the enumeration contract.
func checkAgainstTruth(t *testing.T, s *SpaceSaving, truth map[uint64]int64) {
	t.Helper()
	checkTracked(t, s)
	for item := uint64(0); item < 48; item++ {
		f := truth[item]
		est, bound := s.Estimate(item)
		if est > f {
			t.Fatalf("over-estimate item %d: est %d > true %d", item, est, f)
		}
		if f > est+bound {
			t.Fatalf("item %d: true %d above est %d + bound %d", item, f, est, bound)
		}
	}
}

// fuzzSummary drives one summary through the decoded ops, checking the
// estimate invariants against the exact counts (reset with the summary)
// after every op, and the Reset-replay contract at the end: Reset and an
// identical replay must reproduce the identical Heavy snapshot, Total, and
// error bound.
func fuzzSummary(t *testing.T, s *SpaceSaving, ops []fuzzOp) {
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
			checkAgainstTruth(t, s, truth)
		}
	}
	replay()
	if errorBound(s) < 0 {
		t.Fatal("negative error bound")
	}

	h1, t1, e1 := s.Heavy(64, nil), s.Total(), errorBound(s)
	s.Reset()
	if s.Total() != 0 {
		t.Fatalf("Total %d after Reset, want 0", s.Total())
	}
	if h := s.Heavy(64, nil); len(h) != 0 {
		t.Fatalf("%d heavy items after Reset, want none", len(h))
	}
	checkTracked(t, s)
	replay()
	h2, t2, e2 := s.Heavy(64, nil), s.Total(), errorBound(s)
	if !reflect.DeepEqual(h1, h2) || t1 != t2 || e1 != e2 {
		t.Fatalf("Reset replay diverged:\n%v total=%d bound=%d\n%v total=%d bound=%d",
			h1, t1, e1, h2, t2, e2)
	}
}

// FuzzSpaceSaving fuzzes the summary's invariants: no panics on any input,
// estimates never above the true count and never below it by more than the
// bound, and Reset replay is byte-identical; then it replays the tape into
// the map-based references, comparing the slots and the level with a
// Space-Saving and every read with a Misra-Gries of one counter fewer
// after every op. Capacities are derived from the input so eviction
// pressure varies.
func FuzzSpaceSaving(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add(uint8(8), []byte{5, 10, 0, 5, 10, 0, 7, 1, 0, 9, 3, 0, 11, 2, 0})
	f.Add(uint8(2), []byte{1, 255, 0, 2, 128, 0, 3, 127, 0, 1, 0, 0})
	// Two counters, read as one Misra-Gries counter, weighted arrivals:
	// decrement rounds that absorb an arrival and ones that leave a
	// remainder.
	f.Add(uint8(1), []byte{0, 5, 0, 1, 3, 0, 2, 9, 0, 0, 2, 0, 1, 1, 0})
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
		fuzzSummary(t, NewSpaceSaving(capacity), ops)
		s, rs, rm := NewSpaceSaving(capacity), newRefSpaceSaving(capacity), newRefMG(capacity-1)
		for _, op := range ops {
			op.apply(s)
			switch op.kind {
			case opObserve:
				rs.observe(op.item, op.delta)
				rm.observe(op.item, op.delta)
			case opReset:
				rs, rm = newRefSpaceSaving(capacity), newRefMG(capacity-1)
			}
			checkSpaceSavingView(t, s, rs, rm, universe)
		}
	})
}
