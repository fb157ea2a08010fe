package protocol_test

import (
	"math"
	"slices"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
)

// TestFindMaxReturnsTrueMax: Lemma 2.6's protocol is Las Vegas.
func TestFindMaxReturnsTrueMax(t *testing.T) {
	rng := rngx.New(31)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		e := lockstep.New(n, uint64(trial))
		vals := make([]int64, n)
		bestID, bestV := 0, int64(-1)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 30)
			if vals[i] > bestV || (vals[i] == bestV && i > bestID) {
				bestID, bestV = i, vals[i]
			}
		}
		e.Advance(vals)
		rep, ok := protocol.FindMax(e, true)
		if !ok {
			t.Fatal("max not found")
		}
		if rep.Value != bestV {
			t.Fatalf("trial %d: found value %d, want %d", trial, rep.Value, bestV)
		}
	}
}

// TestTopMOrderAndCompleteness: TopM returns the m largest values in
// non-increasing order covering every id exactly once.
func TestTopMOrderAndCompleteness(t *testing.T) {
	rng := rngx.New(77)
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(20)
		m := 1 + rng.Intn(n)
		e := lockstep.New(n, uint64(trial)+1000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		e.Advance(vals)
		reps := protocol.TopM(e, m, nil)
		if len(reps) != m {
			t.Fatalf("TopM returned %d of %d", len(reps), m)
		}
		seen := map[int]bool{}
		for i, r := range reps {
			if seen[r.ID] {
				t.Fatal("duplicate id in TopM")
			}
			seen[r.ID] = true
			if i > 0 && r.Value > reps[i-1].Value {
				t.Fatal("TopM out of order")
			}
		}
		// The m-th value must dominate all unreturned values.
		floor := reps[m-1].Value
		for i, v := range vals {
			if !seen[i] && v > floor {
				t.Fatalf("value %d at %d missed by TopM (floor %d)", v, i, floor)
			}
		}
	}
}

// TestTopMWithTies: duplicate values are all found across runs.
func TestTopMWithTies(t *testing.T) {
	e := lockstep.New(6, 5)
	e.Advance([]int64{50, 50, 50, 10, 10, 5})
	reps := protocol.TopM(e, 3, nil)
	if len(reps) != 3 {
		t.Fatalf("got %d reports", len(reps))
	}
	found := map[int]bool{}
	for _, r := range reps {
		if r.Value != 50 {
			t.Fatalf("expected the three 50s, got %+v", reps)
		}
		found[r.ID] = true
	}
	if !found[0] || !found[1] || !found[2] {
		t.Fatalf("tie group incomplete: %+v", reps)
	}
}

// TestTopMValuesExact pins what TopM promises when values tie: the values
// it returns are exactly the m largest, in decreasing order, its ids are
// distinct, and each id holds the value it reported. Which of several
// tied nodes it returns is not promised (a raise drops every node of the
// raised value, so the tied node sampled first wins), and the test does
// not look. Values from a range of five make most of them ties; 200 seeds
// on both engines.
func TestTopMValuesExact(t *testing.T) {
	engines := map[string]func(n int, seed uint64) (cluster.Engine, func()){
		"lockstep": func(n int, seed uint64) (cluster.Engine, func()) { return lockstep.New(n, seed), func() {} },
		"live/m=3": func(n int, seed uint64) (cluster.Engine, func()) {
			e := live.New(n, seed, live.WithShards(3))
			return e, e.Close
		},
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			rng := rngx.New(404)
			for seed := range uint64(200) {
				n := 4 + rng.Intn(60)
				m := 1 + rng.Intn(n)
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = 100 * rng.Int63n(5)
				}
				e, done := mk(n, seed)
				e.Advance(vals)
				reps := protocol.TopM(e, m, nil)
				done()

				want := slices.Clone(vals)
				slices.Sort(want)
				slices.Reverse(want)
				got := make([]int64, len(reps))
				seen := map[int]bool{}
				for i, r := range reps {
					got[i] = r.Value
					if seen[r.ID] {
						t.Fatalf("seed %d: TopM(%d) returns node %d twice: %+v", seed, m, r.ID, reps)
					}
					seen[r.ID] = true
					if vals[r.ID] != r.Value {
						t.Fatalf("seed %d: node %d reported %d, it holds %d", seed, r.ID, r.Value, vals[r.ID])
					}
				}
				if !slices.Equal(got, want[:m]) {
					t.Fatalf("seed %d: TopM(%d) returns values %v, the %d largest are %v", seed, m, got, m, want[:m])
				}
			}
		})
	}
}

// TestFindMaxMessageScaling reproduces the O(log n) expectation of
// Lemma 2.6: mean messages grow at most ~c·ln n.
func TestFindMaxMessageScaling(t *testing.T) {
	means := map[int]float64{}
	for _, n := range []int{16, 64, 256, 1024} {
		var total int64
		const trials = 60
		for trial := 0; trial < trials; trial++ {
			e := lockstep.New(n, uint64(n*1000+trial))
			vals := make([]int64, n)
			r := rngx.New(uint64(trial) * 13)
			for i := range vals {
				vals[i] = r.Int63n(1 << 30)
			}
			e.Advance(vals)
			before := *e.Counters()
			if _, ok := protocol.FindMax(e, true); !ok {
				t.Fatal("no max")
			}
			total += e.Counters().Sub(before).Total()
		}
		means[n] = float64(total) / trials
	}
	for n, mean := range means {
		bound := 10 * (math.Log(float64(n)) + 1)
		if mean > bound {
			t.Errorf("n=%d: mean %.1f messages exceeds O(log n) bound %.1f", n, mean, bound)
		}
	}
	t.Logf("FindMax mean messages: %v", means)
}

func TestTopMCapsAtN(t *testing.T) {
	e := lockstep.New(3, 9)
	e.Advance([]int64{5, 3, 1})
	reps := protocol.TopM(e, 10, nil)
	if len(reps) != 3 {
		t.Errorf("TopM beyond n returned %d", len(reps))
	}
}
