package sim

import (
	"slices"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
)

// TestDenseProtocolIsExercised asserts that DENSEPROTOCOL actually runs
// under the Approx controller on the chain table's dense-exercised row,
// whose k-th value sits inside a dense oscillating band (2 pinned-high
// nodes, 18 oscillating around 1000 ± 40, inside the ε = 1/4 neighborhood
// of v_k ≈ 1000, and 4 pinned low) — the correctness tests would be
// vacuous for Section 5 if the controller always fell through to
// TOP-K-PROTOCOL. TestTableCoverage validates every one of its outputs.
func TestDenseProtocolIsExercised(t *testing.T) {
	i := slices.IndexFunc(chaintest.Table, func(r chaintest.Row) bool { return r.Name == "dense-exercised/approx" })
	ref := chaintest.Table[i].Reference()
	if ref.Dense == 0 {
		t.Fatal("DENSEPROTOCOL never ran on a dense workload")
	}
	last := ref.Obs[len(ref.Obs)-1]
	t.Logf("messages=%d epochs=%d denseEpochs=%d subCalls=%d", last.Cost.Messages, last.Epochs, ref.Dense, ref.Sub)
}

// TestDenseWithTightOscillation: oscillation fully inside the neighborhood
// should eventually be communication-free for an ε-monitor once the sets
// stabilise — total cost must be far below the naive monitor's.
func TestDenseWithTightOscillation(t *testing.T) {
	const n, k, steps = 20, 3, 1000
	e := eps.MustNew(1, 3)
	mk := func() stream.Generator {
		return stream.NewOscillator(2, 14, 4, 3000, 20, 300000, 10, 99)
	}

	apRep, err := Run(Config{
		K: k, Eps: e, Steps: steps, Seed: 4,
		Gen:        mk(),
		NewMonitor: func(c cluster.Cluster) protocol.Monitor { return protocol.NewApprox(c, k, e) },
		Validate:   ValidateEps,
	})
	if err != nil {
		t.Fatal(err)
	}
	nvRep, err := Run(Config{
		K: k, Eps: e, Steps: steps, Seed: 4,
		Gen:        mk(),
		NewMonitor: func(c cluster.Cluster) protocol.Monitor { return protocol.NewNaive(c, k) },
		Validate:   ValidateEps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if apRep.Messages.Total()*2 >= nvRep.Messages.Total() {
		t.Errorf("approx monitor (%d msgs) should be well below naive (%d msgs) on tight oscillation",
			apRep.Messages.Total(), nvRep.Messages.Total())
	}
	t.Logf("approx=%d naive=%d", apRep.Messages.Total(), nvRep.Messages.Total())
}

// TestLowerBoundAdversary runs the Theorem 5.1 instance and checks the
// online cost exceeds the offline realistic cost by a factor growing with
// σ/k — the Ω(σ/k) lower bound's empirical shape.
func TestLowerBoundAdversary(t *testing.T) {
	const k = 2
	e := eps.MustNew(1, 4)
	for _, sigma := range []int{6, 12, 24} {
		gen := stream.NewLowerBound(sigma, 4, k, e, 1<<20)
		steps := 3 * (sigma - k) // a few phases
		rep, err := Run(Config{
			K: k, Eps: e, Steps: steps, Seed: 17,
			Gen:        gen,
			NewMonitor: func(c cluster.Cluster) protocol.Monitor { return protocol.NewApprox(c, k, e) },
			Validate:   ValidateEps,
			ComputeOPT: true, OPTEps: e,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Messages.Total() < int64(sigma-k) {
			t.Errorf("σ=%d: adversary should force ≥ σ-k messages, got %d", sigma, rep.Messages.Total())
		}
		t.Logf("σ=%d: online=%d optBreaks=%d optRealistic=%d ratioLB=%.1f",
			sigma, rep.Messages.Total(), rep.OPTBreaks, rep.OPTRealistic, rep.RatioLB)
	}
}
