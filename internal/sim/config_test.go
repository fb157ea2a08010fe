package sim

import (
	"strings"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
)

func validCfg() Config {
	e := eps.MustNew(1, 8)
	return Config{
		K: 2, Eps: e, Steps: 10, Seed: 1,
		Gen: stream.NewWalk(6, 100, 5, 1000, 1),
		NewMonitor: func(c cluster.Cluster) protocol.Monitor {
			return protocol.NewApprox(c, 2, e)
		},
		Validate: ValidateEps,
	}
}

func TestRunRejectsMissingPieces(t *testing.T) {
	cfg := validCfg()
	cfg.Gen = nil
	if _, err := Run(cfg); err == nil {
		t.Error("nil Gen accepted")
	}
	cfg = validCfg()
	cfg.NewMonitor = nil
	if _, err := Run(cfg); err == nil {
		t.Error("nil NewMonitor accepted")
	}
	cfg = validCfg()
	cfg.Steps = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestRunReportsValidationFailureWithContext(t *testing.T) {
	cfg := validCfg()
	// A monitor that lies: always outputs the first k ids.
	cfg.NewMonitor = func(c cluster.Cluster) protocol.Monitor {
		return liar{c}
	}
	// Workload where the top-k moves away from {0,1}.
	cfg.Gen = stream.NewReplay("swap", [][]int64{
		{100, 90, 1, 1, 1, 1},
		{1, 1, 100, 90, 80, 70},
	})
	cfg.Steps = 2
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("invalid output not reported")
	}
	if !strings.Contains(err.Error(), "step 1") {
		t.Errorf("error lacks step context: %v", err)
	}
}

// liar is a deliberately broken monitor for failure-path testing.
type liar struct{ c cluster.Cluster }

func (l liar) Name() string  { return "liar" }
func (l liar) Start()        {}
func (l liar) HandleStep()   {}
func (l liar) Output() []int { return []int{0, 1} }
func (l liar) Epochs() int64 { return 1 }

// TestSoakLargeDense is a larger-scale stress run: 128 nodes, heavy dense
// churn, full validation at every step.
func TestSoakLargeDense(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n, k, steps = 128, 8, 600
	e := eps.MustNew(1, 5)
	gen := stream.NewOscillator(k-1, 90, n-k+1-90, 100000, 15000, 10000000, 50, 12)
	rep, err := Run(Config{
		K: k, Eps: e, Steps: steps, Seed: 9,
		Gen:        gen,
		NewMonitor: func(c cluster.Cluster) protocol.Monitor { return protocol.NewApprox(c, k, e) },
		Validate:   ValidateEps,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: msgs=%d epochs=%d σ=%d maxRounds=%d",
		rep.Messages.Total(), rep.Epochs, rep.SigmaMax, rep.Messages.MaxRoundsPerStep())
}
