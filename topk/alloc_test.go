package topk_test

import (
	"runtime"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/live"
	"topkmon/internal/protocol"
	"topkmon/topk"
)

// Node counts of the two alloc workloads, for the entries of
// TestFacadeStepAllocs that build their engine themselves.
const steadyNodes, churnNodes = 64, 256

// mkSteady returns a warmed-up monitor plus the pre-generated step batches
// the steady-state alloc tests and benchmarks cycle through.
func mkSteady(tb testing.TB, engOpts ...topk.Option) (*topk.Monitor, [][]topk.Update) {
	tb.Helper()
	r := chaintest.Kept("steady")
	var batches [][]topk.Update
	for _, b := range r.Reference().Trace {
		batches = append(batches, b.Updates(nil))
	}
	return chaintest.NewPusher(r, engOpts...).M, batches
}

// TestFacadeStepAllocs enforces the acceptance budget of the push API: in
// steady state, UpdateBatch (one full monitored time step), single-node
// Update (staging), TopK, Cost, and Check allocate nothing — on both
// engines. This is the benchmark-tracked property asserted as a test so CI
// fails on regressions without running benchmarks.
func TestFacadeStepAllocs(t *testing.T) {
	engines := []struct {
		name    string
		opts    []topk.Option
		workers int // > 0: inject a live engine of that many shards, every call through its goroutines
	}{
		{name: "lockstep"},
		// At these n the facade's own live engine runs every call on the
		// caller; the /workers twin keeps the goroutine path on the budget.
		// The facade has no option for it, so the test builds the engine.
		{name: "live/m=3", opts: []topk.Option{topk.WithEngine(topk.Live), topk.WithShards(3)}},
		{name: "live/m=3/workers", workers: 3},
		// A zero fault plan arms the injector wrapper and the per-step
		// supervisor; the whole fault layer must stay on the zero-alloc
		// budget when nothing is injected.
		{name: "lockstep/faults=zero", opts: []topk.Option{topk.WithFaults(&topk.FaultPlan{})}},
	}
	for _, eng := range engines {
		opts := func(t *testing.T, n int) []topk.Option {
			if eng.workers == 0 {
				return eng.opts
			}
			lv := live.New(n, 5, live.WithShards(eng.workers), live.WithGrain(0))
			t.Cleanup(lv.Close)
			return []topk.Option{topk.WithClusterEngine(lv)}
		}
		t.Run(eng.name, func(t *testing.T) {
			m, batches := mkSteady(t, opts(t, steadyNodes)...)
			defer m.Close()
			i := 0
			step := func() {
				if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range 128 {
				step()
			}
			if avg := testing.AllocsPerRun(400, step); avg != 0 {
				t.Errorf("steady-state UpdateBatch allocates %.2f per step, want 0", avg)
			}

			if avg := testing.AllocsPerRun(400, func() {
				if err := m.Update(7, int64(100000+i%100)); err != nil {
					t.Fatal(err)
				}
				i++
			}); avg != 0 {
				t.Errorf("steady-state Update allocates %.2f per push, want 0", avg)
			}

			out := make([]int, 0, m.K())
			if avg := testing.AllocsPerRun(400, func() {
				out = m.TopK(out)
				if len(out) != m.K() {
					t.Fatal("short output")
				}
			}); avg != 0 {
				t.Errorf("TopK allocates %.2f per read, want 0", avg)
			}

			if avg := testing.AllocsPerRun(400, func() {
				if c := m.Cost(); c.Messages < 0 {
					t.Fatal("bogus cost")
				}
			}); avg != 0 {
				t.Errorf("Cost allocates %.2f per read, want 0", avg)
			}

			// Warm the oracle scratch once, then Check must be free too.
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(400, func() {
				if err := m.Check(); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("Check allocates %.2f per validation, want 0", avg)
			}
		})
		t.Run("churn/"+eng.name, func(t *testing.T) { churnStepAllocs(t, opts(t, churnNodes)...) })
	}
}

// churnStepAllocs extends the zero-allocation budget to the path the
// drifting walk above never takes: contenders riding
// phase-shifted triangle waves trade top-k places every few steps, so the
// Approx controller keeps opening epochs and runs DENSEPROTOCOL — its case
// analysis, collects and filter broadcasts — on sparse batches that touch
// only the contenders. One wave period is pre-generated
// and cycled (the waves return to their start), and the run must actually
// spend dense epochs, or the measurement is vacuous. The budget is checked
// twice: as AllocsPerRun's per-step average, and as an exact count of heap
// allocations over a window that opens many epochs.
func churnStepAllocs(t *testing.T, engOpts ...topk.Option) {
	const n, k, contenders, period = churnNodes, 8, 32, 200
	wave := func(p int) int64 { // triangle between 1e6 and 2e6
		if p > period/2 {
			p = period - p
		}
		return 1e6 + 1e6*int64(p)/(period/2)
	}
	load := make([]topk.Update, n)
	for i := range load {
		load[i] = topk.Update{Node: i, Value: int64(1e5 + i*3000)}
		if i < contenders {
			load[i].Value = wave(i * period / contenders)
		}
	}
	batches := make([][]topk.Update, period)
	for s := range batches {
		batches[s] = make([]topk.Update, contenders)
		for i := range batches[s] {
			batches[s][i] = topk.Update{Node: i, Value: wave((i*period/contenders + s + 1) % period)}
		}
	}

	e := eps.MustNew(1, 8)
	var approx *protocol.Approx
	opts := append([]topk.Option{topk.WithNodes(n), topk.WithSeed(5),
		topk.WithMonitorFunc(func(cl cluster.Cluster) protocol.Monitor {
			approx = protocol.NewApprox(cl, k, e)
			return approx
		})}, engOpts...)
	m, err := topk.New(k, topk.WrapEps(e), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.UpdateBatch(load); err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func() {
		if err := m.UpdateBatch(batches[i%period]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 2 * period { // every buffer reaches its high-water mark
		step()
	}
	dense0 := approx.DenseEpochs()
	if avg := testing.AllocsPerRun(2*period, step); avg != 0 {
		t.Errorf("contender-churn UpdateBatch allocates %.2f per step, want 0", avg)
	}
	if approx.DenseEpochs() == dense0 {
		t.Fatal("the measured steps opened no dense epoch: the trace does not churn")
	}

	// AllocsPerRun reports an integer average, which rounds a few
	// allocations per epoch opening (0.12 per step, once) down to the 0 it
	// is compared with. Count them instead: a window of two wave periods
	// opens dozens of epochs and must not allocate once. The count is the
	// whole process's, so the least of three windows is taken: what an
	// epoch allocates shows in every window, a stray runtime allocation
	// does not.
	least, opened := ^uint64(0), int64(0)
	for range 3 {
		var before, after runtime.MemStats
		epochs0 := m.Epochs()
		runtime.ReadMemStats(&before)
		for range 2 * period {
			step()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		opened = m.Epochs() - epochs0
	}
	if opened < 8 {
		t.Fatalf("a counted window opened %d epochs, want several", opened)
	}
	if least != 0 {
		t.Errorf("%d allocations over %d churn steps and %d epoch openings, want exactly 0",
			least, 2*period, opened)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFacadeUpdateBatch measures one pushed time step (n=64, k=8,
// drifting walk) through the public API; 0 allocs/op is the enforced
// budget (TestFacadeStepAllocs).
func BenchmarkFacadeUpdateBatch(b *testing.B) {
	engines := []struct {
		name string
		opts []topk.Option
	}{
		{"lockstep", nil},
		{"live", []topk.Option{topk.WithEngine(topk.Live)}},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			m, batches := mkSteady(b, eng.opts...)
			defer m.Close()
			for i := 0; i < 64; i++ {
				if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFacadeTopK measures the zero-alloc read path.
func BenchmarkFacadeTopK(b *testing.B) {
	m, batches := mkSteady(b)
	defer m.Close()
	for i := 0; i < 64; i++ {
		if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	out := make([]int, 0, m.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.TopK(out)
		if len(out) != m.K() {
			b.Fatal("short output")
		}
	}
}

// BenchmarkFacadeSingleUpdate measures fine-grained per-node pushes (each
// full rotation over the nodes commits one step).
func BenchmarkFacadeSingleUpdate(b *testing.B) {
	m, batches := mkSteady(b)
	defer m.Close()
	n := m.N()
	for i := 0; i < 64; i++ {
		if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := batches[(i/n)%len(batches)][i%n]
		if err := m.Update(u.Node, u.Value); err != nil {
			b.Fatal(err)
		}
	}
}
