package protocol

import (
	"fmt"
	"math"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// Phase identifies which of the four strategies of Section 4 is active.
type Phase int8

// The four consecutive phases of TOP-K-PROTOCOL.
const (
	// PhaseA1 (property P1, log log u > log log ℓ + 1 ⟺ u > ℓ²) probes
	// separators ℓ₀ + 2^(2^r) growing double-exponentially.
	PhaseA1 Phase = iota + 1
	// PhaseA2 (property P2, u > 4ℓ) bisects on a log scale: the separator
	// is the geometric mean of ℓ and u.
	PhaseA2
	// PhaseA3 (property P3, u > ℓ/(1-ε)) bisects arithmetically.
	PhaseA3
	// PhaseP4 (u ≤ ℓ/(1-ε)) holds the ε-slack filters [ℓ,∞], [0,u]; the
	// next violation empties L and ends the epoch.
	PhaseP4
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseA1:
		return "A1"
	case PhaseA2:
		return "A2"
	case PhaseA3:
		return "A3"
	case PhaseP4:
		return "P4"
	default:
		return fmt.Sprintf("Phase(%d)", int8(p))
	}
}

// TopKProto is the TOP-K-PROTOCOL of Section 4: it outputs the exact top-k
// at epoch start and witnesses its correctness with an ε-relaxed filter gap,
// achieving O(k log n + log log Δ + log 1/ε) messages per epoch against an
// exact offline optimum (Theorem 4.5).
type TopKProto struct {
	c   cluster.Cluster
	k   int
	e   eps.Eps
	out []int

	l      filter.Interval
	phase  Phase
	r      int   // A1 violation counter
	l0     int64 // ℓ at epoch start (A1's base)
	epochs int64
	// a1Broken marks that A1 saw a violation from above: per Lemma 4.1 the
	// phase then terminates ("the condition log log u′ ≤ log log ℓ′ + 1
	// holds") — A1's separator ℓ₀+2^(2^r) probes from below and cannot
	// track a descending upper bound.
	a1Broken bool

	// Ablation switches for experiment E9: disabling A1/A2 degrades the
	// epoch cost from O(log log Δ) to O(log Δ) bisection.
	DisableA1 bool
	DisableA2 bool

	// OnEpochEnd, when set, is called instead of self-restarting when an
	// epoch terminates (used by the Theorem 5.8 controller).
	OnEpochEnd func()

	rules ruleScratch
	probe []wire.Report // startEpoch's TopM buffer
}

// NewTopKProto returns the Section 4 monitor.
func NewTopKProto(c cluster.Cluster, k int, e eps.Eps) *TopKProto {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: TopKProto needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	return &TopKProto{c: c, k: k, e: e, out: make([]int, 0, k), rules: newRuleScratch()}
}

// Name implements Monitor.
func (m *TopKProto) Name() string { return "topk-protocol" }

// Epochs implements Monitor.
func (m *TopKProto) Epochs() int64 { return m.epochs }

// Output implements Monitor.
func (m *TopKProto) Output() []int { return m.out }

// Start implements Monitor.
func (m *TopKProto) Start() { m.startEpoch() }

func (m *TopKProto) startEpoch() {
	m.probe = openProbe(m.c, m.k, m.probe)
	m.StartWithProbe(m.probe)
}

// StartWithProbe begins an epoch from an already-probed top-(k+1) list,
// avoiding a duplicate probe when a controller has just paid for one.
func (m *TopKProto) StartWithProbe(reps []wire.Report) {
	m.epochs++
	m.out = idsInto(m.out, reps[:m.k])
	m.l = filter.Make(reps[m.k].Value, reps[m.k-1].Value)
	m.l0 = m.l.Lo
	m.r = 0
	m.a1Broken = false
	m.recomputePhase()
	fOut, fRest := m.filters()
	m.rules.assignTwoSided(m.c, m.out, fOut, fRest)
}

// recomputePhase applies the P1–P4 cascade to the current L = [ℓ, u].
// Since ℓ only grows and u only shrinks within an epoch, phases advance
// monotonically.
func (m *TopKProto) recomputePhase() {
	l, u := m.l.Lo, m.l.Hi
	switch {
	case m.e.FilterCompatible(l, u): // u ≤ ℓ/(1-ε): property P4
		m.phase = PhaseP4
	case !m.DisableA1 && !m.a1Broken && p1Holds(l, u):
		m.phase = PhaseA1
	case !m.DisableA2 && u > 4*l:
		m.phase = PhaseA2
	default:
		m.phase = PhaseA3
	}
}

// p1Holds checks property P1: log log u > log log ℓ + 1, which over the
// integers is u > ℓ² (base-2 logs), guarded for ℓ ≤ 1.
func p1Holds(l, u int64) bool {
	if l < 2 {
		l = 2
	}
	if l > 1<<31 {
		// ℓ² would overflow, and u ≤ MaxValue < ℓ² anyway.
		return false
	}
	return u > l*l
}

// separator returns the broadcast value m for the bisecting phases.
func (m *TopKProto) separator() int64 {
	l, u := m.l.Lo, m.l.Hi
	switch m.phase {
	case PhaseA1:
		// m := ℓ₀ + 2^(2^r), saturating far above any observable value.
		exp := int64(1) << uint(min(m.r, 6))
		return satAdd(m.l0, pow2Sat(int(min(exp, 60))))
	case PhaseA2:
		return geoMid(l, u)
	default: // PhaseA3
		return m.l.Mid()
	}
}

// geoMid returns an integer approximation of the geometric mean √(ℓu),
// clamped inside [ℓ, u]; any interior point within a constant factor of the
// true mean preserves Lemma 4.2's O(1) bound.
func geoMid(l, u int64) int64 {
	g := int64(math.Sqrt(float64(l) * float64(u)))
	if g < l {
		g = l
	}
	if g > u {
		g = u
	}
	return g
}

func (m *TopKProto) filters() (fOut, fRest filter.Interval) {
	if m.phase == PhaseP4 {
		return filter.AtLeast(m.l.Lo), filter.AtMost(m.l.Hi)
	}
	s := m.separator()
	return filter.AtLeast(s), filter.AtMost(s)
}

// HandleStep implements Monitor.
func (m *TopKProto) HandleStep() {
	drainViolations(m.c, m.Handle)
}

// Handle processes one violation report (exported for the controller).
func (m *TopKProto) Handle(rep wire.Report) {
	if m.phase == PhaseP4 {
		// Step 5/6: the violation empties L; terminate the epoch.
		m.endEpoch()
		return
	}
	if rep.Dir == filter.DirUp {
		m.l = m.l.ClampAbove(rep.Value)
	} else {
		m.l = m.l.ClampBelow(rep.Value)
		if m.phase == PhaseA1 {
			// Lemma 4.1: a violation from above terminates A1.
			m.a1Broken = true
		}
	}
	if m.phase == PhaseA1 {
		m.r++
	}
	if m.l.Empty() {
		m.endEpoch()
		return
	}
	m.recomputePhase()
	fOut, fRest := m.filters()
	m.rules.retargetTwoSided(m.c, fOut, fRest)
}

func (m *TopKProto) endEpoch() {
	if m.OnEpochEnd != nil {
		m.OnEpochEnd()
		return
	}
	m.startEpoch()
}
