package protocol_test

import (
	"testing"

	"topkmon/internal/eps"
)

// enterSub drives the standard rig into SUBPROTOCOL: node D (id 3) is first
// observed above u_0 (S1), then below ℓ_0 (S1∩S2 → SUB). On entry D
// re-violates into S′1∩S′2 and settles at 700 with filter [ℓ′, z/(1-ε)].
func enterSub(t *testing.T) *scriptRig {
	t.Helper()
	e := eps.MustNew(1, 2)
	// A=5000 (V1: > 2000), B=C=1000 (pins z=1000), D=900, E=800 (V2),
	// F=100 (V3). L0=[500,1000], ℓ0=750, u0=1500.
	rig := newScriptRig(t, 6, 2, e, []int64{5000, 1000, 1000, 900, 800, 100})
	rig.step([]int64{5000, 1000, 1000, 1600, 800, 100}) // D → S1 (b.2)
	rig.step([]int64{5000, 1000, 1000, 700, 800, 100})  // D → S1∩S2 → SUB (c.2)
	if !rig.d.InSub() {
		t.Fatal("rig failed to enter SUBPROTOCOL")
	}
	return rig
}

// TestSubCaseA: a V1 node dropping below ℓ_r during SUB terminates it and
// halves the outer L downward (SUB case a).
func TestSubCaseA(t *testing.T) {
	rig := enterSub(t)
	h0 := rig.d.Halvings
	rig.step([]int64{600, 1000, 1000, 700, 800, 100}) // A falls below ℓ0=750
	if rig.d.InSub() {
		t.Error("SUB must terminate on a V1 down-violation")
	}
	if rig.d.Halvings <= h0 && rig.ended == 0 {
		t.Error("outer L must halve (or the epoch end)")
	}
}

// TestSubCaseAPrime: a V3 node rising above u′ during SUB moves L′ to its
// upper half with S′1 := S1; SUB continues (case a′).
func TestSubCaseAPrime(t *testing.T) {
	rig := enterSub(t)
	// L' = [500,750], ℓ'=625, u' = 1250. F → 1300 > u'.
	rig.step([]int64{5000, 1000, 1000, 700, 800, 1300})
	// SUB may legitimately still run (L' = upper half, several rounds
	// remain) — or resolve if the cascade emptied L'. Either way the
	// outer interval must not have ended the epoch on this step alone.
	if rig.ended != 0 {
		t.Error("a single V3 up-violation must not end the whole epoch")
	}
}

// TestSubCaseB1: a V2\S′ node observed above u′ when k nodes are already
// certified above moves L′ upward (case b.1: |V1|+|S′1|+1 > k with V1={A},
// S′1={D} and k=2).
func TestSubCaseB1(t *testing.T) {
	rig := enterSub(t)
	rig.step([]int64{5000, 1000, 1000, 700, 1300, 100}) // E → 1300 > u'=1250
	if rig.ended != 0 {
		t.Error("b.1 must not end the epoch outright")
	}
	// The protocol must remain live and valid; drive one more churn step.
	rig.step([]int64{5000, 1000, 1000, 700, 800, 100})
}

// TestSubCaseBPrime1: once strictly more than n-k nodes are certified below
// ℓ_r, SUB terminates and the outer L halves downward (case b′.1).
func TestSubCaseBPrime1(t *testing.T) {
	rig := enterSub(t)
	h0 := rig.d.Halvings
	// n-k = 4. Drop B, C and E below ℓ0=750; with V3={F} and D already in
	// S′2 the third certification makes |V3|+|S′2|+1 = 5 > 4: b′.1 fires.
	rig.step([]int64{5000, 700, 700, 700, 700, 100})
	if rig.d.InSub() && rig.d.Halvings <= h0 && rig.ended == 0 {
		t.Error("mass descent below ℓ_r must eventually terminate SUB via b′.1")
	}
}

// TestSubReentry: if SUB resolves a different node while the initiator
// remains in S1∩S2, SUBPROTOCOL is re-entered until the intersection
// clears (the re-entry rule, see maybeReenterSub).
func TestSubReentry(t *testing.T) {
	rig := enterSub(t)
	calls0 := rig.d.SubCalls
	// E also straddles: above u' (S′1 via b.2 — count 1+1+1 ≤ 2? No:
	// |V1|+|S′1|+1 = 1+1+1 = 3 > 2 → actually b.1 path; instead push E
	// below ℓ_r into S′2, then above zUpper to force moves).
	rig.step([]int64{5000, 1000, 1000, 700, 700, 100})  // E → S′2 (b′.2)
	rig.step([]int64{5000, 1000, 1000, 700, 2500, 100}) // E → above z/(1-ε): c′.2 then d.1 → V1
	// After any SUB termination with D still unresolved, re-entry fires.
	if rig.d.SubCalls < calls0 {
		t.Error("SubCalls went backwards")
	}
	// Keep churning; protocol must stay valid (validated in step).
	rig.step([]int64{5000, 1000, 1000, 700, 2500, 100})
	t.Logf("subCalls=%d halvings=%d ended=%d topked=%d",
		rig.d.SubCalls, rig.d.Halvings, rig.ended, rig.topked)
}

// TestSubLifecycleUnderSweep drives the rig through a long pseudo-random
// churn of the V2 band, asserting validity at every step (the rig does) and
// that the epoch machinery (sub entries, halvings, endings) all fire.
func TestSubLifecycleUnderSweep(t *testing.T) {
	rig := enterSub(t)
	vals := []int64{5000, 1000, 1000, 700, 800, 100}
	seq := []int64{1600, 650, 1300, 580, 1700, 900, 520, 1400, 760, 2100}
	for i, v := range seq {
		vals[3] = v
		if i%3 == 2 {
			vals[4] = 1500 - v/2 // counter-movement from E
		}
		rig.step(append([]int64(nil), vals...))
	}
	if rig.d.SubCalls == 0 {
		t.Error("lifecycle sweep never used SUBPROTOCOL")
	}
}
