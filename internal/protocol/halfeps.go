package protocol

import (
	"fmt"
	"sort"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// HalfEps is the Corollary 5.9 monitor: an ε-Top-k algorithm that is
// O(σ + k log n + log log Δ + log 1/ε)-competitive against an offline
// optimum restricted to the smaller error ε′ ≤ ε/2.
//
// It simulates only the first round of DENSEPROTOCOL with widened
// admission: nodes above (1-ε/2)z/(1-ε) go straight to V1, nodes below
// (1-ε/2)z straight to V3, and any V2 violation moves the node immediately
// (no S-sets, no SUBPROTOCOL). A violation by a settled V1/V3 node — or V1
// overflowing k, or V1∪V2 starving below k — terminates the epoch, at which
// point the ε/2-restricted optimum provably communicated.
type HalfEps struct {
	c cluster.Cluster
	k int
	e eps.Eps // the online error ε; the adversary is held to ε/2

	topk   *TopKProto
	inTopK bool
	epochs int64

	z      int64
	l0, u0 int64 // the round-0 thresholds (1-ε/2)z and (1-ε/2)z/(1-ε)

	part  partition // V1 / V2 / V3
	out   []int
	probe []wire.Report   // the epoch-opening TopM buffer
	reset wire.FilterRule // the epoch-opening broadcast
}

// NewHalfEps returns the Corollary 5.9 monitor.
func NewHalfEps(c cluster.Cluster, k int, e eps.Eps) *HalfEps {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: HalfEps needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	if e.IsZero() {
		panic("protocol: HalfEps needs ε > 0")
	}
	h := &HalfEps{c: c, k: k, e: e, part: newPartition(c.N()), reset: resetAllTags(wire.TagV3)}
	h.topk = NewTopKProto(c, k, e)
	h.topk.OnEpochEnd = h.startEpoch
	return h
}

// Name implements Monitor.
func (h *HalfEps) Name() string { return "half-eps" }

// Epochs implements Monitor.
func (h *HalfEps) Epochs() int64 { return h.epochs + h.topk.Epochs() }

// Output implements Monitor.
func (h *HalfEps) Output() []int {
	if h.inTopK {
		return h.topk.Output()
	}
	return h.out
}

// Start implements Monitor.
func (h *HalfEps) Start() { h.startEpoch() }

// topM probes the k+1 largest values into the monitor's buffer.
func (h *HalfEps) topM() []wire.Report {
	h.probe = openProbe(h.c, h.k, h.probe)
	return h.probe
}

func (h *HalfEps) startEpoch() {
	reps := h.topM()
	vk, vk1 := reps[h.k-1].Value, reps[h.k].Value
	if h.e.ClearlyBelow(vk1, vk) {
		h.inTopK = true
		h.topk.StartWithProbe(reps)
		return
	}
	h.inTopK = false
	h.epochs++
	h.z = vk

	// Round-0 thresholds with exact rational arithmetic: ℓ₀ is the
	// midpoint (1-ε/2)z of [(1-ε)z, z]; u₀ = (1-ε/2)z/(1-ε). With
	// ε = p/q: ℓ₀ = ⌈z(2q-p)/(2q)⌉ (so v < ℓ₀ ⟺ v < (1-ε/2)z exactly for
	// integers) and u₀ = ⌊z(2q-p)/(2(q-p))⌋ (so v > u₀ ⟺ v above the V1
	// admission threshold exactly).
	half := h.e.Half()
	h.l0 = half.ShrinkCeil(h.z)
	p, q := h.e.Num, h.e.Den
	h.u0 = (h.z * (2*q - p)) / (2 * (q - p))

	high := h.c.Collect(wire.InRange(h.u0+1, filter.Inf))
	mid := h.c.Collect(wire.InRange(h.l0, h.u0))
	h.part.classify(high, mid)
	if h.starved() {
		h.startEpoch()
		return
	}
	h.c.BroadcastRule(h.reset.With(wire.TagV3, filter.AtMost(h.u0)))
	for _, i := range h.part.members {
		if h.part.in(i, classV1) {
			h.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(h.l0))
		}
	}
	for _, i := range h.part.members {
		if h.part.in(i, classV2) {
			h.c.SetTagFilter(i, wire.TagV2, filter.Make(h.l0, h.u0))
		}
	}
	h.settle()
}

// starved reports that no output of size k exists: V1 overflowed k, or
// V1 ∪ V2 fell below it.
func (h *HalfEps) starved() bool {
	return h.part.size[classV1] > h.k || h.part.size[classV1]+h.part.size[classV2] < h.k
}

// settle hands over to TOP-K-PROTOCOL once V2 is empty with k nodes above,
// and otherwise recomputes the output: V1, filled up from V2 in id order.
func (h *HalfEps) settle() {
	if h.part.size[classV1] == h.k && h.part.size[classV3] == h.c.N()-h.k {
		h.inTopK = true
		h.topk.StartWithProbe(h.topM())
		return
	}
	out := h.part.appendIDs(h.out[:0], classV1)
	out = h.part.appendIDs(out, classV2)[:h.k]
	sort.Ints(out)
	h.out = out
}

// HandleStep implements Monitor.
func (h *HalfEps) HandleStep() {
	drainViolations(h.c, h.handle)
}

func (h *HalfEps) handle(rep wire.Report) {
	if h.inTopK {
		h.topk.Handle(rep)
		return
	}
	i := rep.ID
	switch {
	case !h.part.in(i, classV2):
		// A settled node left its side: the ε/2-optimum communicated.
		h.startEpoch()
		return
	case rep.Dir == filter.DirUp:
		h.part.move(i, classV1)
		h.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(h.l0))
	default:
		h.part.move(i, classV3)
		h.c.SetTagFilter(i, wire.TagV3, filter.AtMost(h.u0))
	}
	if h.starved() {
		h.startEpoch()
		return
	}
	h.settle()
}
