package rngx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must replay identically")
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times in 64 draws", same)
	}
}

func TestChildDecorrelation(t *testing.T) {
	root := New(7)
	c1, c2 := root.Child(1), root.Child(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("children of distinct ids should diverge immediately")
	}
	// Child derivation must not consume parent state.
	r1, r2 := New(7), New(7)
	r1.Child(5)
	if r1.Uint64() != r2.Uint64() {
		t.Error("Child must not advance the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := s.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean %f far from 0.5", mean)
	}
}

func TestBoolEdgesAndRate(t *testing.T) {
	s := New(11)
	if s.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("Bool(0.25) rate %f", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation at %d", v)
		}
		seen[v] = true
	}
}
