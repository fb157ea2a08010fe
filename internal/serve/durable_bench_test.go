package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"topkmon/topk"
)

// benchConfig is the tenant shape both durability benchmarks use: big
// enough that the monitor does real work per step, small enough that the
// WAL append (not the engine) dominates the policy comparison.
var benchConfig = Config{
	Nodes: 256, K: 8, Eps: "1/8", Engine: "lockstep", Monitor: "approx", Seed: 7,
}

// benchBatch builds a deterministic 16-update batch per step.
func benchBatch(rng *rand.Rand, nodes int) []topk.Update {
	batch := make([]topk.Update, 16)
	for i := range batch {
		batch[i] = topk.Update{Node: rng.Intn(nodes), Value: int64(rng.Intn(1 << 20))}
	}
	return batch
}

// commitCases are the fsync policies the commit path is measured under,
// cheapest first.
var commitCases = []struct{ name, fsync string }{
	{"volatile", ""},
	{"fsync=never", "never"},
	{"fsync=interval", "interval"},
	{"fsync=always", "always"},
}

// benchTenant boots a server with the given fsync policy ("" = volatile,
// no data dir) and creates the one tenant the commit benchmarks drive.
func benchTenant(tb testing.TB, fsync string) *Tenant {
	tb.Helper()
	opts := Options{}
	if fsync != "" {
		opts.Durability = Durability{Dir: tb.TempDir(), Fsync: fsync, SnapshotEvery: 1 << 30}
	}
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	tn, err := s.pool.Create("bench", benchConfig)
	if err != nil {
		tb.Fatal(err)
	}
	return tn
}

// BenchmarkDurableCommit measures the per-batch ingest cost of each fsync
// policy against the volatile baseline: what durability costs. Every
// iteration commits the same 16-update batch with a fresh seq through the
// full validate → journal → commit path, so after the first iteration
// every commit is a step that changes no value (a quiet step): the numbers
// are the journal plus a quiet step, not protocol work
// (TestDurableCommitAllocs varies its batches for that). fsync=always pays
// a disk flush per batch; interval and never pay only the buffered append
// + CRC; volatile pays nothing.
func BenchmarkDurableCommit(b *testing.B) {
	for _, bc := range commitCases {
		b.Run(bc.name, func(b *testing.B) {
			tn := benchTenant(b, bc.fsync)
			batch := benchBatch(rand.New(rand.NewSource(1)), benchConfig.Nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tn.CommitBatch(batch, "bench-client", uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDurableCommitAllocs holds the commit path to the steady-state budget
// of 0 allocations, with and without the journal: the WAL append reuses its
// frame buffer and the facade its step scratch. The batches differ from one
// commit to the next, so the steps measured include protocol work, not only
// quiet heartbeats.
func TestDurableCommitAllocs(t *testing.T) {
	// Not interval: AllocsPerRun counts the whole process, its flusher
	// goroutine included. Not always: an fsync per commit for the same append.
	for _, tc := range commitCases[:2] {
		t.Run(tc.name, func(t *testing.T) {
			tn := benchTenant(t, tc.fsync)
			rng := rand.New(rand.NewSource(1))
			batches := make([][]topk.Update, 64)
			for i := range batches {
				batches[i] = benchBatch(rng, benchConfig.Nodes)
			}
			seq := uint64(0)
			commit := func() {
				seq++
				if _, _, err := tn.CommitBatch(batches[seq%uint64(len(batches))], "alloc-client", seq); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: buffers reach their working size.
			for i := 0; i < 4*len(batches); i++ {
				commit()
			}
			if avg := testing.AllocsPerRun(4*len(batches), commit); avg != 0 {
				t.Fatalf("CommitBatch allocates %.2f times per batch, want 0", avg)
			}
		})
	}
}

// BenchmarkRecovery measures boot-time replay cost as a function of log
// length: each iteration opens a server over a prepared data dir holding
// one tenant with `steps` journaled batches and replays it to the live
// monitor. This is the restart-latency curve that motivates the
// snapshot-by-replay compaction (CommitReset) and the SnapshotEvery
// durability points.
func BenchmarkRecovery(b *testing.B) {
	for _, steps := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			dir := b.TempDir()
			s, err := New(Options{Durability: Durability{
				Dir: dir, Fsync: "never", SnapshotEvery: 1 << 30,
			}})
			if err != nil {
				b.Fatal(err)
			}
			tn, err := s.pool.Create("bench", benchConfig)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < steps; i++ {
				batch := benchBatch(rng, benchConfig.Nodes)
				if _, _, err := tn.CommitBatch(batch, "bench-client", uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := New(Options{Durability: Durability{
					Dir: dir, Fsync: "never", SnapshotEvery: 1 << 30,
				}})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				tn, err := rs.pool.Get("bench")
				if err != nil || tn.Mon.Steps() != int64(steps) {
					b.Fatalf("recovered %v steps, want %d (err=%v)", tn, steps, err)
				}
				rs.Close()
				b.StartTimer()
			}
		})
	}
}
