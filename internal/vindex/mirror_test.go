package vindex

import (
	"slices"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/rngx"
)

// checkMirror verifies the mirror's full structural contract against
// reference value/filter vectors: the violator set holds exactly the ids
// whose value lies outside their filter, each exactly once, with pos/vio
// agreeing, and AppendViolators emits them in ascending id order.
func checkMirror(t *testing.T, m *Mirror, base int, vals []int64, flts []filter.Interval) {
	t.Helper()
	if len(m.pos) != len(vals) {
		t.Fatalf("mirror holds %d ids, want %d", len(m.pos), len(vals))
	}
	want := 0
	for i := range vals {
		id := base + i
		wantVio := !flts[i].Contains(vals[i])
		if wantVio {
			want++
		}
		if got := m.pos[i] >= 0; got != wantVio {
			t.Fatalf("violating(%d) = %v, want %v (value %d filter %+v)",
				id, got, wantVio, vals[i], flts[i])
		}
	}
	if m.NumViolating() != want {
		t.Fatalf("NumViolating = %d, want %d", m.NumViolating(), want)
	}
	for p, id := range m.vio {
		if m.pos[int(id)-base] != int32(p) {
			t.Fatalf("pos[%d] = %d, vio has it at %d", int(id)-base, m.pos[int(id)-base], p)
		}
	}
	got := m.AppendViolators(nil)
	if !slices.IsSorted(got) {
		t.Fatalf("AppendViolators not ascending: %v", got)
	}
	if len(got) != want {
		t.Fatalf("AppendViolators emitted %d ids, want %d", len(got), want)
	}
}

// TestMirrorRandomOps drives the mirror with random value and filter
// assignments (including the re-assign-same and empty-filter edges) and
// checks the violator set stays exact after every single operation.
func TestMirrorRandomOps(t *testing.T) {
	const base, n, ops = 7, 61, 4000
	r := rngx.New(99)
	m := NewMirror(base, n)
	vals := make([]int64, n)
	flts := make([]filter.Interval, n)
	for i := range flts {
		flts[i] = filter.All
	}
	checkMirror(t, m, base, vals, flts)

	for op := 0; op < ops; op++ {
		i := r.Intn(n)
		switch r.Intn(5) {
		case 0, 1: // value move (small domain to force in/out flips)
			vals[i] = r.Int63n(64)
		case 2: // narrow filter
			lo := r.Int63n(64)
			flts[i] = filter.Make(lo, lo+r.Int63n(8))
		case 3: // empty filter: everything violates
			flts[i] = filter.Make(9, 3)
		default: // all-admitting filter: nothing violates
			flts[i] = filter.All
		}
		m.Set(base+i, vals[i], flts[i])
		checkMirror(t, m, base, vals, flts)
	}

	m.Reset()
	clear(vals)
	for i := range flts {
		flts[i] = filter.All
	}
	checkMirror(t, m, base, vals, flts)
}

// TestMirrorAppendViolatorsReuses pins the zero-allocation contract of the
// sweep path: AppendViolators reuses dst capacity and sorts only its own
// suffix.
func TestMirrorAppendViolatorsReuses(t *testing.T) {
	m := NewMirror(0, 8)
	for _, id := range []int{6, 2, 4} {
		m.Set(id, 0, filter.Make(5, 5)) // value 0 → violating
	}
	buf := make([]int32, 1, 16)
	buf[0] = 99
	got := m.AppendViolators(buf)
	if &got[0] != &buf[0] {
		t.Error("AppendViolators reallocated despite sufficient capacity")
	}
	if want := []int32{99, 2, 4, 6}; !slices.Equal(got, want) {
		t.Errorf("AppendViolators = %v, want %v", got, want)
	}
}
