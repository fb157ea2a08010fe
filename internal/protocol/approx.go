package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/wire"
)

// Approx is the Theorem 5.8 controller: per epoch it probes the k+1 largest
// values; if the (k+1)-st is clearly below the k-th the output is unique and
// TOP-K-PROTOCOL runs, otherwise DENSEPROTOCOL handles the dense
// ε-neighborhood. After either terminates, the controller probes and
// decides again. Its competitiveness against an offline optimum with the
// same error ε is O(σ² log(εv_k) + σ log²(εv_k) + log log Δ + log 1/ε).
type Approx struct {
	c cluster.Cluster
	k int
	e eps.Eps

	topk  *TopKProto
	dense *Dense

	inDense bool
	probe   []wire.Report // the epoch-opening TopM buffer

	// AfterHandle, when set, runs after every processed violation (test
	// instrumentation for invariant checking).
	AfterHandle func(rep wire.Report)
}

// NewApprox wires the two sub-protocols to the controller.
func NewApprox(c cluster.Cluster, k int, e eps.Eps) *Approx {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: Approx needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	if e.IsZero() {
		panic("protocol: Approx needs ε > 0; use ExactMid for the exact problem")
	}
	a := &Approx{c: c, k: k, e: e}
	a.topk = NewTopKProto(c, k, e)
	a.dense = NewDense(c, k, e)
	a.topk.OnEpochEnd = a.startEpoch
	a.dense.OnEpochEnd = a.startEpoch
	a.dense.OnSwitchTopK = func() {
		a.inDense = false
		a.topk.StartWithProbe(a.topM())
	}
	return a
}

// Name implements Monitor.
func (a *Approx) Name() string { return "approx-controller" }

// Epochs implements Monitor: the sum of sub-protocol epochs, each of which
// forces at least one OPT message by Theorems 4.5 and Lemma 5.7.
func (a *Approx) Epochs() int64 { return a.topk.Epochs() + a.dense.Epochs() }

// DenseEpochs returns how many epochs ran DENSEPROTOCOL.
func (a *Approx) DenseEpochs() int64 { return a.dense.Epochs() }

// SubCalls returns the number of SUBPROTOCOL invocations.
func (a *Approx) SubCalls() int64 { return a.dense.SubCalls }

// CheckInvariants compares the engine-side tags, one per node, against the
// DENSE/SUB set classification the server holds, and describes the first
// divergence. Outside a dense phase, and in its preamble, there is nothing
// to compare. No program calls it; the invariant stress tests of
// internal/sim and internal/live run it after every violation.
func (a *Approx) CheckInvariants(tags []wire.Tag) error {
	d := a.dense
	if !a.inDense || !d.active || d.inPreamble {
		return nil
	}
	for i := range tags {
		var want wire.Tag
		switch {
		case d.part.in(i, classV1):
			want = wire.TagV1
		case d.part.in(i, classV3):
			want = wire.TagV3
		case d.sub != nil:
			want = classTag(d.part.sides(i, subView))
		default:
			want = classTag(d.part.sides(i, denseView))
		}
		if tags[i] != want {
			return fmt.Errorf("dense: node %d tag %v, sets say %v (sub=%v)", i, tags[i], want, d.sub != nil)
		}
	}
	return nil
}

// Output implements Monitor.
func (a *Approx) Output() []int {
	if a.inDense {
		return a.dense.Output()
	}
	return a.topk.Output()
}

// Start implements Monitor.
func (a *Approx) Start() { a.startEpoch() }

func (a *Approx) startEpoch() {
	reps := a.topM()
	vk, vk1 := reps[a.k-1].Value, reps[a.k].Value
	if a.e.ClearlyBelow(vk1, vk) {
		a.inDense = false
		a.topk.StartWithProbe(reps)
	} else {
		a.inDense = true
		a.dense.StartWithProbe(reps)
	}
}

// topM probes the k+1 largest values into the controller's buffer; the
// sub-protocols read the result only while StartWithProbe runs.
func (a *Approx) topM() []wire.Report {
	a.probe = openProbe(a.c, a.k, a.probe)
	return a.probe
}

// HandleStep implements Monitor, routing each violation to whichever
// sub-protocol currently runs (the mode may flip mid-drain).
func (a *Approx) HandleStep() {
	drainViolations(a.c, func(rep wire.Report) {
		if a.inDense {
			a.dense.Handle(rep)
		} else {
			a.topk.Handle(rep)
		}
		if a.AfterHandle != nil {
			a.AfterHandle(rep)
		}
	})
}
