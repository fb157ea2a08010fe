package protocol_test

import (
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/lockstep"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
)

// scriptRig drives a Dense monitor over a scripted value matrix,
// validating the ε-output after every step.
type scriptRig struct {
	t      *testing.T
	eng    *lockstep.Engine
	d      *protocol.Dense
	k      int
	e      eps.Eps
	ended  int
	topked int
}

func newScriptRig(t *testing.T, n, k int, e eps.Eps, first []int64) *scriptRig {
	t.Helper()
	rig := &scriptRig{t: t, eng: lockstep.New(n, 1234), k: k, e: e}
	rig.d = protocol.NewDense(rig.eng, k, e)
	rig.d.OnEpochEnd = func() {
		rig.ended++
		rig.d.StartWithProbe(protocol.TopM(rig.eng, k+1, nil))
	}
	rig.d.OnSwitchTopK = func() {
		rig.topked++
		// The rig keeps Dense in charge (restart) — we only script dense
		// regimes, and the restart keeps outputs valid.
		rig.d.StartWithProbe(protocol.TopM(rig.eng, k+1, nil))
	}
	rig.eng.Advance(first)
	rig.d.Start()
	rig.validate(first)
	return rig
}

func (rig *scriptRig) step(vals []int64) {
	rig.t.Helper()
	rig.eng.Advance(vals)
	rig.d.HandleStep()
	rig.validate(vals)
	rig.eng.EndStep()
}

func (rig *scriptRig) validate(vals []int64) {
	rig.t.Helper()
	truth := oracle.Compute(vals, rig.k, rig.e)
	if err := truth.ValidateEps(rig.d.Output()); err != nil {
		rig.t.Fatalf("invalid output: %v", err)
	}
}

// TestDenseScriptedSubEntry walks DENSEPROTOCOL deterministically into
// SUBPROTOCOL: a node first observed above u_r (→ S1), then below ℓ_r
// (→ S1∩S2 → SUB), then driven down until L′ empties and the node moves to
// V3 — covering cases b.2, c.2 and the SUB d.2 cascade.
func TestDenseScriptedSubEntry(t *testing.T) {
	// n=6, k=2, ε=1/2: neighborhood of z is [z/2, 2z].
	e := eps.MustNew(1, 2)
	// A=5000 (V1: > 2z = 2000), B=C=1000 (so z pins immediately),
	// D=900, E=800 (V2), F=100 (V3: < z/2 = 500).
	first := []int64{5000, 1000, 1000, 900, 800, 100}
	rig := newScriptRig(t, 6, 2, e, first)

	// z=1000, L0=[500,1000], ℓ0=750, u0=1500.
	// D (id 3) → 1600 > u0: case b.2 → S1 (|V1|+|S1|+1 = 2 = k not > k).
	rig.step([]int64{5000, 1000, 1000, 1600, 800, 100})
	// D → 700 < ℓ0: case c.2 → S1∩S2 → SUBPROTOCOL runs.
	rig.step([]int64{5000, 1000, 1000, 700, 800, 100})
	if rig.d.SubCalls == 0 {
		t.Fatal("SUBPROTOCOL was not invoked")
	}
	// Drive D down in small decrements: each pass re-halves L′ (SUB d.2)
	// until L′ empties and D lands in V3.
	for _, v := range []int64{640, 580, 540, 520, 510, 505, 502, 501} {
		rig.step([]int64{5000, 1000, 1000, v, 800, 100})
	}
	t.Logf("subCalls=%d halvings=%d epochsEnded=%d topkSwitches=%d",
		rig.d.SubCalls, rig.d.Halvings, rig.ended, rig.topked)
}

// TestDenseScriptedSubToV1 drives the S1∩S2 node upward instead, covering
// SUB case d.1 (move to V1, terminate SUB).
func TestDenseScriptedSubToV1(t *testing.T) {
	e := eps.MustNew(1, 2)
	first := []int64{5000, 1000, 1000, 900, 800, 100}
	rig := newScriptRig(t, 6, 2, e, first)

	rig.step([]int64{5000, 1000, 1000, 1600, 800, 100}) // D → S1
	rig.step([]int64{5000, 1000, 1000, 700, 800, 100})  // D → S1∩S2 → SUB
	if rig.d.SubCalls == 0 {
		t.Fatal("SUBPROTOCOL was not invoked")
	}
	// D → 2500 > z/(1-ε) = 2000: SUB case d.1 — D must join V1.
	rig.step([]int64{5000, 1000, 1000, 2500, 800, 100})
	out := rig.d.Output()
	foundD := false
	for _, id := range out {
		if id == 3 {
			foundD = true
		}
	}
	if !foundD {
		t.Fatalf("node 3 rose clearly above but is not in output %v", out)
	}
}

// TestDenseV1DownViolationHalvesLower covers DENSE case a: a V1 node
// falling below ℓ_r halves L downward.
func TestDenseV1DownViolationHalvesLower(t *testing.T) {
	e := eps.MustNew(1, 2)
	first := []int64{5000, 1000, 1000, 900, 800, 100}
	rig := newScriptRig(t, 6, 2, e, first)
	h0 := rig.d.Halvings
	// A (V1, filter [750, ∞]) falls to 600 < 750: case a.
	rig.step([]int64{600, 1000, 1000, 900, 800, 100})
	if rig.d.Halvings <= h0 && rig.ended == 0 {
		t.Error("V1 down-violation must halve L (or end the epoch)")
	}
}

// TestDenseV3UpViolationHalvesUpper covers DENSE case a′.
func TestDenseV3UpViolationHalvesUpper(t *testing.T) {
	e := eps.MustNew(1, 2)
	first := []int64{5000, 1000, 1000, 900, 800, 100}
	rig := newScriptRig(t, 6, 2, e, first)
	h0 := rig.d.Halvings
	// F (V3, filter [0, 1500]) jumps to 1600: case a′.
	rig.step([]int64{5000, 1000, 1000, 900, 800, 1600})
	if rig.d.Halvings <= h0 && rig.ended == 0 {
		t.Error("V3 up-violation must halve L upward (or end the epoch)")
	}
}

// TestDenseB1MajorityAbove covers case b.1: when more than k nodes are
// certified above u_r, L moves to its upper half.
func TestDenseB1MajorityAbove(t *testing.T) {
	e := eps.MustNew(1, 2)
	// k=1: V1={A}; B,C,D dense; E low. z: need v_k == v_{k+1} for instant
	// pin with k=1: top-1 = A... use k=2 with two pinned nodes instead.
	// A=B=1000 (k=2, z=1000), C,D,E in V2, F low.
	first := []int64{1000, 1000, 900, 850, 800, 100}
	rig := newScriptRig(t, 6, 2, e, first)
	h0 := rig.d.Halvings
	// u0 = 1500. C → 1600 (S1, count |V1|+|S1|+1 = 0+0+1 ≤ 2), then
	// D → 1700 (count 0+1+1 = 2 ≤ 2), then E → 1800 (count 0+2+1 = 3 > 2:
	// b.1 fires).
	rig.step([]int64{1000, 1000, 1600, 850, 800, 100})
	rig.step([]int64{1000, 1000, 1600, 1700, 800, 100})
	rig.step([]int64{1000, 1000, 1600, 1700, 1800, 100})
	if rig.d.Halvings <= h0 && rig.ended == 0 {
		t.Error("three up-certified nodes with k=2 must trigger b.1")
	}
}

// TestDenseEpochEndsWhenLExhausted: a V3 node jumping above every possible
// u_r (u_r ≤ z/(1-ε) = 2000) keeps violating through each upper-half move,
// exhausting L within the step — the epoch must end (Lemma 5.7: OPT
// communicated).
func TestDenseEpochEndsWhenLExhausted(t *testing.T) {
	e := eps.MustNew(1, 2)
	// Three nodes at 1000 so v_k = v_{k+1} pins z without a preamble.
	first := []int64{1000, 1000, 1000, 850, 800, 100}
	rig := newScriptRig(t, 6, 2, e, first)
	rig.step([]int64{1000, 1000, 1000, 850, 800, 2100})
	if rig.ended == 0 {
		t.Error("a persistent above-range violator never ended the dense epoch")
	}
}

// TestDenseSwitchesToTopKWhenClusterDissolves covers case (d)/(e): k nodes
// get observed above u_r and n-k below ℓ_r, so the unique-output regime
// applies and the controller is asked to run TOP-K-PROTOCOL.
func TestDenseSwitchesToTopKWhenClusterDissolves(t *testing.T) {
	e := eps.MustNew(1, 2)
	first := []int64{1000, 1000, 1000, 980, 100, 90}
	rig := newScriptRig(t, 6, 2, e, first)
	// z=1000, ℓ0=750, u0=1500, (1-ε)z = 500.
	// C and D crash below 500: b′.2 puts each in S2, the follow-up
	// violation (v < zLow) lands them in V3 via c′.1.
	rig.step([]int64{1000, 1000, 400, 980, 100, 90})
	rig.step([]int64{1000, 1000, 400, 400, 100, 90})
	// Now V3 covers n-k = 4 nodes. Raise A and B above u0 = 1500: each
	// lands in S1 (b.2); after the second, |V1|+|S1| = k and the switch
	// fires.
	rig.step([]int64{1600, 1000, 400, 400, 100, 90})
	rig.step([]int64{1600, 1700, 400, 400, 100, 90})
	if rig.topked == 0 && rig.ended == 0 {
		t.Error("dissolved cluster neither switched to TOP-K nor ended the epoch")
	}
}

// TestDensePreamble: when v_k ≠ v_{k+1} the preamble filters hold until a
// violation pins z.
func TestDensePreamble(t *testing.T) {
	e := eps.MustNew(1, 2)
	// v_2 = 1000 (B), v_3 = 900 (C): preamble with F1=[900,∞], F2=[0,1000].
	first := []int64{5000, 1000, 900, 800, 700, 100}
	rig := newScriptRig(t, 6, 2, e, first)
	// No violation: stays in preamble, zero cost steps.
	before := rig.eng.Counters().Total()
	rig.step([]int64{5000, 1000, 900, 800, 700, 100})
	if rig.eng.Counters().Total() != before {
		t.Error("quiet preamble step must be free")
	}
	// C crosses above 1000: violation from below → z := v_k = 1000.
	rig.step([]int64{5000, 1000, 1100, 800, 700, 100})
	// After z pins, the protocol classifies and keeps valid outputs
	// (validated inside step).
}

var _ = cluster.Cluster(nil) // keep the import for the rig's type references
