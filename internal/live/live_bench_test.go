package live

import (
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// BenchmarkLiveStep measures the steady-state per-step cost of each monitor
// on the goroutine engine (n=64, k=8) — the live twin of the root
// BenchmarkMonitorStep. The step vectors are pre-generated outside the timed
// loop, so the measurement is engine + monitor cost, the dense Advance
// included. With engine-owned report lists and double-buffered responses
// the steady state must allocate nothing (asserted by TestLiveStepAllocs).
// At this n every call is below the parallel grain and runs on the caller,
// so per-call dispatch is the remaining cost over lockstep.
func BenchmarkLiveStep(b *testing.B) {
	const n, k = 64, 8
	const pregen = 1024
	e := eps.MustNew(1, 8)
	monitors := []struct {
		name string
		mk   func(cluster.Cluster) protocol.Monitor
	}{
		{"exact-mid", func(c cluster.Cluster) protocol.Monitor { return protocol.NewExactMid(c, k) }},
		{"topk", func(c cluster.Cluster) protocol.Monitor { return protocol.NewTopKProto(c, k, e) }},
		{"approx", func(c cluster.Cluster) protocol.Monitor { return protocol.NewApprox(c, k, e) }},
		{"half-eps", func(c cluster.Cluster) protocol.Monitor { return protocol.NewHalfEps(c, k, e) }},
		{"naive", func(c cluster.Cluster) protocol.Monitor { return protocol.NewNaive(c, k) }},
	}
	for _, m := range monitors {
		b.Run(m.name, func(b *testing.B) {
			gen := stream.NewWalk(n, 100000, 500, 1<<24, 13)
			steps := make([][]int64, pregen)
			for t := range steps {
				steps[t] = gen.Next(t)
			}
			eng := New(n, 5)
			defer eng.Close()
			mon := m.mk(eng)
			eng.Advance(steps[0])
			mon.Start()
			eng.EndStep()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Advance(steps[(i+1)%pregen])
				mon.HandleStep()
				eng.EndStep()
			}
		})
	}
}

// BenchmarkLiveSweepSilent measures the zero-violation fast path of the
// EXISTENCE sweep on the goroutine engine — the per-step floor every quiet
// time step pays: one node round, run on the caller.
func BenchmarkLiveSweepSilent(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(benchName(n), func(b *testing.B) {
			c := New(n, 1)
			defer c.Close()
			c.Advance(make([]int64, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := c.Sweep(wire.Violating()); got != nil {
					b.Fatal("unexpected senders")
				}
			}
		})
	}
}

func benchName(n int) string {
	if n == 64 {
		return "n=64"
	}
	return "n=1024"
}
