package sim

import (
	"fmt"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/topk"
)

// monitors under test, constructed per run.
func monitorFactories(k int, e eps.Eps) map[string]func(cluster.Cluster) protocol.Monitor {
	m := map[string]func(cluster.Cluster) protocol.Monitor{}
	for _, name := range []string{"exact-mid", "topk", "approx", "half-eps", "naive", "mid-naive"} {
		a, err := topk.ParseAlgorithm(name)
		if err != nil {
			panic(err)
		}
		m[name] = func(c cluster.Cluster) protocol.Monitor { return a.NewMonitor(c, k, e) }
	}
	return m
}

func generators(n int, seed uint64) map[string]stream.Generator {
	return map[string]stream.Generator{
		"walk":       stream.NewWalk(n, 1000, 20, 1<<20, seed),
		"jumps":      stream.NewJumps(n, 100, 10000, seed),
		"oscillator": stream.NewOscillator(2, n-6, 4, 1000, 30, 5000, 100, seed),
		"loads":      stream.NewLoads(n, 500, 25, 0.02, 2000, 1<<20, seed),
	}
}

// TestAllMonitorsProduceValidEpsOutputs is the central correctness gate:
// every monitor must emit a valid ε-Top-k output at every step on every
// workload.
func TestAllMonitorsProduceValidEpsOutputs(t *testing.T) {
	const n, k, steps = 16, 3, 400
	e := eps.MustNew(1, 10)
	for genName := range generators(n, 1) {
		for monName, factory := range monitorFactories(k, e) {
			t.Run(fmt.Sprintf("%s/%s", monName, genName), func(t *testing.T) {
				gen := generators(n, 7)[genName]
				_, err := Run(Config{
					K: k, Eps: e, Steps: steps, Seed: 42,
					Gen: gen, NewMonitor: factory,
					Validate: ValidateEps,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestExactMonitorsAreExact checks the exact monitors against the exact
// top-k on distinct-valued streams.
func TestExactMonitorsAreExact(t *testing.T) {
	const n, k, steps = 12, 3, 300
	for _, monName := range []string{"exact-mid", "naive", "mid-naive"} {
		t.Run(monName, func(t *testing.T) {
			factory := monitorFactories(k, eps.Zero)[monName]
			gen := stream.Distinct{Inner: stream.NewWalk(n, 1000, 15, 1<<20, 3)}
			_, err := Run(Config{
				K: k, Eps: eps.Zero, Steps: steps, Seed: 5,
				Gen: gen, NewMonitor: factory,
				Validate: ValidateExact,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuietStreamsAreFree: when values never violate any reasonable filter
// (constant streams), a filter-based monitor pays only its startup cost.
func TestQuietStreamsAreFree(t *testing.T) {
	const n, k, steps = 10, 2, 200
	e := eps.MustNew(1, 4)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1000 + 100*i)
	}
	matrix := make([][]int64, steps)
	for t := range matrix {
		matrix[t] = vals
	}
	gen := stream.NewReplay("constant", matrix)
	for _, monName := range []string{"exact-mid", "topk", "approx"} {
		t.Run(monName, func(t *testing.T) {
			rep, err := Run(Config{
				K: k, Eps: e, Steps: steps, Seed: 9,
				Gen: gen, NewMonitor: monitorFactories(k, e)[monName],
				Validate: ValidateEps,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Epochs != 1 {
				t.Errorf("constant stream should need exactly 1 epoch, got %d", rep.Epochs)
			}
			// All communication happens at startup; generous cap.
			if got := rep.Messages.Total(); got > int64(20*(k+1)*n) {
				t.Errorf("constant stream cost %d messages, expected startup-only", got)
			}
		})
	}
}

// TestOPTComputed ensures the offline solver integrates with the run report.
func TestOPTComputed(t *testing.T) {
	const n, k, steps = 8, 2, 150
	e := eps.MustNew(1, 8)
	rep, err := Run(Config{
		K: k, Eps: e, Steps: steps, Seed: 11,
		Gen:        stream.NewWalk(n, 500, 30, 1<<15, 13),
		NewMonitor: monitorFactories(k, e)["approx"],
		Validate:   ValidateEps,
		ComputeOPT: true, OPTEps: e,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OPTBreaks < 0 || rep.RatioLB <= 0 {
		t.Errorf("OPT stats missing: breaks=%d ratio=%f", rep.OPTBreaks, rep.RatioLB)
	}
	if rep.OPTRealistic < int64(rep.OPTBreaks) {
		t.Errorf("realistic OPT cost %d below breaks %d", rep.OPTRealistic, rep.OPTBreaks)
	}
}
