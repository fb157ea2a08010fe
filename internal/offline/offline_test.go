package offline

import (
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/rngx"
)

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(nil, 1, eps.Zero); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := NewInstance([][]int64{{1, 2}}, 3, eps.Zero); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := NewInstance([][]int64{{1, 2}, {1}}, 1, eps.Zero); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestFeasibleSimple(t *testing.T) {
	// Two nodes, k=1: envelopes MIN=MAX.
	if !Feasible([]int64{100, 50}, []int64{100, 50}, 1, eps.Zero) {
		t.Error("separated values must be feasible")
	}
	// Crossing envelopes: node0 dipped to 40 while node1 peaked at 60.
	if Feasible([]int64{40, 50}, []int64{100, 60}, 1, eps.Zero) {
		t.Error("crossed envelopes must be infeasible for ε=0")
	}
	// With ε=1/2 the same envelopes are fine: pick S={0}: 40 ≥ 0.5·60 ✓.
	if !Feasible([]int64{40, 50}, []int64{100, 60}, 1, eps.MustNew(1, 2)) {
		t.Error("ε=1/2 must admit the crossed envelopes")
	}
}

func TestWitnessIsValid(t *testing.T) {
	minEnv := []int64{90, 80, 70, 20, 10}
	maxEnv := []int64{100, 85, 75, 30, 15}
	e := eps.MustNew(1, 4)
	s, ok := Witness(minEnv, maxEnv, 3, e)
	if !ok {
		t.Fatal("expected feasible")
	}
	checkWitness(t, s, minEnv, maxEnv, 3, e)
}

func checkWitness(t *testing.T, s []int, minEnv, maxEnv []int64, k int, e eps.Eps) {
	t.Helper()
	if len(s) != k {
		t.Fatalf("witness size %d, want %d", len(s), k)
	}
	inS := map[int]bool{}
	minS := int64(1) << 62
	for _, id := range s {
		inS[id] = true
		if minEnv[id] < minS {
			minS = minEnv[id]
		}
	}
	for id := range minEnv {
		if inS[id] {
			continue
		}
		if !e.FilterCompatible(minS, maxEnv[id]) {
			t.Fatalf("witness violates Lemma 2.5: minS=%d vs MAX[%d]=%d", minS, id, maxEnv[id])
		}
	}
}

// TestFeasibleMatchesBruteForce: the O(n log n) check agrees with exhaustive
// subset enumeration on random small envelopes.
func TestFeasibleMatchesBruteForce(t *testing.T) {
	rng := rngx.New(42)
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(7)
		k := 1 + rng.Intn(n)
		e := eps.MustNew(int64(rng.Intn(9)), 10)
		minEnv := make([]int64, n)
		maxEnv := make([]int64, n)
		for i := range minEnv {
			a, b := rng.Int63n(50), rng.Int63n(50)
			if a > b {
				a, b = b, a
			}
			minEnv[i], maxEnv[i] = a, b
		}
		fast, ok := Witness(minEnv, maxEnv, k, e)
		slow := bruteFeasible(minEnv, maxEnv, k, e)
		if ok != slow {
			t.Fatalf("trial %d: fast=%v brute=%v (min=%v max=%v k=%d ε=%v)",
				trial, ok, slow, minEnv, maxEnv, k, e)
		}
		if ok {
			checkWitness(t, fast, minEnv, maxEnv, k, e)
		}
	}
}

func bruteFeasible(minEnv, maxEnv []int64, k int, e eps.Eps) bool {
	n := len(minEnv)
	for mask := 0; mask < 1<<n; mask++ {
		if popcount(mask) != k {
			continue
		}
		minS, maxR := int64(1)<<62, int64(-1)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				if minEnv[i] < minS {
					minS = minEnv[i]
				}
			} else if maxEnv[i] > maxR {
				maxR = maxEnv[i]
			}
		}
		if maxR < 0 || e.FilterCompatible(minS, maxR) {
			return true
		}
	}
	return false
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// TestGreedyMatchesDP: greedy maximal segmentation is optimal.
func TestGreedyMatchesDP(t *testing.T) {
	rng := rngx.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		k := 1 + rng.Intn(n-1)
		T := 3 + rng.Intn(15)
		e := eps.MustNew(int64(rng.Intn(5)), 8)
		matrix := make([][]int64, T)
		cur := make([]int64, n)
		for i := range cur {
			cur[i] = rng.Int63n(200)
		}
		for tt := range matrix {
			row := make([]int64, n)
			for i := range row {
				cur[i] += rng.Int63n(61) - 30
				if cur[i] < 0 {
					cur[i] = 0
				}
				row[i] = cur[i]
			}
			matrix[tt] = row
		}
		inst, err := NewInstance(matrix, k, e)
		if err != nil {
			t.Fatal(err)
		}
		greedy := len(inst.Solve().Segments)
		dp := inst.BruteSegments()
		if greedy != dp {
			t.Fatalf("trial %d: greedy=%d dp=%d", trial, greedy, dp)
		}
	}
}

func TestSolveConstantStream(t *testing.T) {
	matrix := [][]int64{{10, 5, 1}, {10, 5, 1}, {10, 5, 1}}
	inst, _ := NewInstance(matrix, 1, eps.Zero)
	res := inst.Solve()
	if len(res.Segments) != 1 || res.Breaks != 0 {
		t.Errorf("constant stream: %+v", res)
	}
	if res.Segments[0].From != 0 || res.Segments[0].To != 2 {
		t.Errorf("segment bounds: %+v", res.Segments[0])
	}
	// Realistic cost: 1 broadcast + k unicasts.
	if res.Realistic != 2 {
		t.Errorf("realistic = %d, want 2", res.Realistic)
	}
}

func TestSolveForcedBreak(t *testing.T) {
	// Node 0 and node 1 swap decisively: a break is unavoidable for ε=0.
	matrix := [][]int64{{100, 1}, {100, 1}, {1, 100}, {1, 100}}
	inst, _ := NewInstance(matrix, 1, eps.Zero)
	res := inst.Solve()
	if res.Breaks != 1 {
		t.Errorf("breaks = %d, want 1", res.Breaks)
	}
}

func TestEpsilonReducesBreaks(t *testing.T) {
	// Oscillation around the k-th value: exact OPT breaks, ε OPT doesn't.
	matrix := make([][]int64, 40)
	for tt := range matrix {
		hi := int64(100)
		lo := int64(96)
		if tt%2 == 1 {
			hi, lo = 96, 100
		}
		matrix[tt] = []int64{hi, lo, 10}
	}
	exact, _ := NewInstance(matrix, 1, eps.Zero)
	approx, _ := NewInstance(matrix, 1, eps.MustNew(1, 10))
	if exact.Solve().Breaks == 0 {
		t.Error("exact OPT should break on swaps")
	}
	if approx.Solve().Breaks != 0 {
		t.Error("ε OPT should ride out the oscillation")
	}
}

func TestSigmaMax(t *testing.T) {
	e := eps.MustNew(1, 4)
	matrix := [][]int64{
		{100, 99, 98, 10}, // σ = 3
		{100, 99, 10, 9},  // σ = 2
	}
	inst, _ := NewInstance(matrix, 2, e)
	if got := inst.SigmaMax(); got != 3 {
		t.Errorf("SigmaMax = %d, want 3", got)
	}
}

func TestRealisticCostCountsSwitches(t *testing.T) {
	matrix := [][]int64{{100, 1}, {1, 100}}
	inst, _ := NewInstance(matrix, 1, eps.Zero)
	res := inst.Solve()
	// Segment 1: bcast + node0; segment 2: bcast + node1 = 4.
	if res.Realistic != 4 {
		t.Errorf("realistic = %d, want 4", res.Realistic)
	}
}

// Witness is the solver's witness on its own buffers: a k-set S (sorted
// ids) that makes the envelopes feasible, if one exists.
func Witness(minEnv, maxEnv []int64, k int, e eps.Eps) ([]int, bool) {
	var s solver
	return s.witness(minEnv, maxEnv, k, e)
}

// BruteSegments returns the minimum number of segments by dynamic
// programming — O(T²) feasibility checks — for validating greedy on small
// instances.
func (in *Instance) BruteSegments() int {
	T := in.T()
	feas := make([][]bool, T)
	for a := 0; a < T; a++ {
		feas[a] = make([]bool, T)
		env := newEnvelope(in.Values[a])
		for b := a; b < T; b++ {
			if b > a {
				env.extend(in.Values[b])
			}
			feas[a][b] = Feasible(env.min, env.max, in.K, in.Eps)
		}
	}
	const inf = int(1) << 30
	dp := make([]int, T+1)
	for i := 1; i <= T; i++ {
		dp[i] = inf
		for a := 0; a < i; a++ {
			if feas[a][i-1] && dp[a]+1 < dp[i] {
				dp[i] = dp[a] + 1
			}
		}
	}
	return dp[T]
}

// Feasible is the solver's feasibility check on its own buffers.
func Feasible(minEnv, maxEnv []int64, k int, e eps.Eps) bool {
	var s solver
	return s.feasible(minEnv, maxEnv, k, e)
}
