package protocol_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
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

// TestTopMWithTies: duplicate values are all found across runs, the
// larger id first.
func TestTopMWithTies(t *testing.T) {
	e := lockstep.New(6, 5)
	e.Advance([]int64{50, 50, 50, 10, 10, 5})
	reps := protocol.TopM(e, 3, nil)
	if len(reps) != 3 {
		t.Fatalf("got %d reports", len(reps))
	}
	for i, r := range reps {
		if r.Value != 50 || r.ID != 2-i {
			t.Fatalf("expected the three 50s, ids 2, 1, 0; got %+v", reps)
		}
	}
}

// findMaxLoop is the unseeded probe TopM replaces, the oracle of the
// tests below: m FindMax runs, each excluding the node it found.
func findMaxLoop(c cluster.Cluster, m int) []wire.Report {
	var out []wire.Report
	for j := 0; j < min(m, c.N()); j++ {
		rep, ok := protocol.FindMax(c, j == 0)
		if !ok {
			break
		}
		out = append(out, rep)
		c.MaxFindExclude(rep.ID)
	}
	return out
}

// topmEngines are the engines the TopM tests run on.
var topmEngines = map[string]func(n int, seed uint64) (cluster.Engine, func()){
	"lockstep": func(n int, seed uint64) (cluster.Engine, func()) { return lockstep.New(n, seed), func() {} },
	"live/m=3": func(n int, seed uint64) (cluster.Engine, func()) {
		e := live.New(n, seed, live.WithShards(3))
		return e, e.Close
	},
}

// TestTopMValuesExact pins what TopM promises when values tie: its
// reports are the m first nodes of the max-find order — decreasing value,
// and of tied values the larger id first — so its ids as well as its
// values are a function of the values alone, and each report carries its
// node's value. Values from a range of five make most of them ties; 200
// seeds on both engines.
func TestTopMValuesExact(t *testing.T) {
	for name, mk := range topmEngines {
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

				order := make([]int, n)
				for i := range order {
					order[i] = i
				}
				slices.SortFunc(order, func(a, b int) int {
					if vals[a] != vals[b] {
						return cmp.Compare(vals[b], vals[a])
					}
					return cmp.Compare(b, a)
				})
				if len(reps) != m {
					t.Fatalf("seed %d: TopM(%d) returns %d reports", seed, m, len(reps))
				}
				for i, r := range reps {
					if r.ID != order[i] || r.Value != vals[r.ID] {
						t.Fatalf("seed %d: TopM(%d) report %d is node %d holding %d, want node %d holding %d",
							seed, m, i, r.ID, r.Value, order[i], vals[order[i]])
					}
				}
			}
		})
	}
}

// TestTopMMatchesLoop holds the seeded probe to the repeated-FindMax loop
// it replaces: on the same values, the same reports in the same order,
// ids included, on both engines, with distinct values, with ties, and at
// m = n. It also shows the seeded probe's saving: summed over the
// instances it sends fewer messages than the loop.
func TestTopMMatchesLoop(t *testing.T) {
	for name, mk := range topmEngines {
		t.Run(name, func(t *testing.T) {
			rng := rngx.New(77)
			var seeded, loop int64
			for seed := range uint64(120) {
				n := 2 + rng.Intn(200)
				m := 1 + rng.Intn(min(n, 20))
				if seed%10 == 0 {
					m = n
				}
				spread := []int64{3, 1000, 1 << 30}[seed%3]
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = rng.Int63n(spread)
				}
				a, doneA := mk(n, seed)
				b, doneB := mk(n, seed)
				a.Advance(vals)
				b.Advance(vals)
				got, want := protocol.TopM(a, m, nil), findMaxLoop(b, m)
				seeded += a.Counters().Total()
				loop += b.Counters().Total()
				doneA()
				doneB()
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d (n=%d, m=%d): TopM returns %v, the loop %v", seed, n, m, got, want)
				}
			}
			if seeded >= loop {
				t.Fatalf("the seeded probes sent %d messages, the loops %d", seeded, loop)
			}
			t.Logf("messages: seeded %d, loop %d", seeded, loop)
		})
	}
}

// TestTopMBuffer: a probe into a buffer of capacity 2m or more allocates
// nothing, and one into a smaller buffer returns a buffer that is large
// enough, so a monitor that keeps it allocates only on its first probe.
func TestTopMBuffer(t *testing.T) {
	const n, m = 256, 9
	e := lockstep.New(n, 3)
	vals := make([]int64, n)
	r := rngx.New(3)
	for i := range vals {
		vals[i] = r.Int63n(1 << 20)
	}
	e.Advance(vals)
	probe := protocol.TopM(e, m, make([]wire.Report, 0, m))
	if cap(probe) < 2*m {
		t.Fatalf("TopM returned a buffer of capacity %d, want at least %d", cap(probe), 2*m)
	}
	if avg := testing.AllocsPerRun(20, func() { probe = protocol.TopM(e, m, probe) }); avg != 0 {
		t.Fatalf("a probe into its own buffer allocates %.1f times", avg)
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
