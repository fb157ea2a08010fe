package items

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"topkmon/internal/sketch"
	istream "topkmon/internal/stream/items"
	"topkmon/topk"
)

// referenceBatch is the step this package ran before it accumulated, kept
// as the oracle: every node's Heavy(track) list, the union deduplicated and
// sorted by item id, and one Estimate per (candidate, node) pair.
func referenceBatch(per []*sketch.SpaceSaving, track int) []topk.Update {
	stamp := make(map[int]bool)
	var candidates []int
	var heavy []sketch.Counter
	for _, s := range per {
		heavy = s.Heavy(track, heavy[:0])
		for _, c := range heavy {
			j := int(c.Item)
			if !stamp[j] {
				stamp[j] = true
				candidates = append(candidates, j)
			}
		}
	}
	sort.Ints(candidates)
	batch := []topk.Update{}
	for _, j := range candidates {
		var sum int64
		for _, s := range per {
			est, _ := s.Estimate(uint64(j))
			sum += est
		}
		if sum > topk.MaxValue {
			sum = topk.MaxValue
		}
		batch = append(batch, topk.Update{Node: j, Value: sum})
	}
	return batch
}

func testConfig() Config {
	return Config{
		Nodes: 8, Items: 256, K: 8,
		Epsilon:  topk.MustEpsilon(1, 8),
		Capacity: 48,
		Seed:     7,
	}
}

func testTraces(cfg Config) []istream.Generator {
	return []istream.Generator{
		istream.NewZipf(cfg.Nodes, cfg.Items, 600, 1.1, 13),
		istream.NewBursty(cfg.Nodes, cfg.Items, 600, 1.1, 0.2, 4, 300, 17),
		istream.NewChurn(cfg.Nodes, cfg.Items, 600, 1.1, 5, 19),
	}
}

func observeAll(t testing.TB, m *Monitor, evs []istream.Event) {
	t.Helper()
	for _, e := range evs {
		if err := m.Observe(e.Node, e.Item, e.Count); err != nil {
			t.Fatal(err)
		}
	}
}

// scratchIsZero reports whether Step left its accumulator and bitset clear.
func scratchIsZero(m *Monitor) bool {
	for _, v := range m.acc {
		if v != 0 {
			return false
		}
	}
	for _, w := range m.marked {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestStepMatchesReference holds every step's pushed batch to the old
// Heavy → dedupe → sort → Estimate-per-pair step, entry for entry, on three
// traces — through the steps where the summaries are not yet full (every
// minimum 0), into eviction pressure, and across a step whose aggregates
// clamp at topk.MaxValue — and on the zipf trace at Capacity 2, the
// smallest New accepts, where each node lists at most one counter.
func TestStepMatchesReference(t *testing.T) {
	type row struct {
		name     string
		capacity int
		g        istream.Generator
	}
	base := testConfig()
	var rows []row
	for _, g := range testTraces(base) {
		rows = append(rows, row{g.Name(), base.Capacity, g})
	}
	zipf := testTraces(base)[0]
	rows = append(rows, row{zipf.Name() + ",c=2", 2, zipf})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg, g := base, r.g
			cfg.Capacity = r.capacity
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			step := func(s int) []topk.Update {
				want := referenceBatch(m.per, cfg.Capacity)
				if err := m.Step(); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				if !reflect.DeepEqual(m.batch, want) {
					t.Fatalf("step %d: pushed batch differs from the reference\n got %v\nwant %v", s, m.batch, want)
				}
				if !scratchIsZero(m) {
					t.Fatalf("step %d: scratch not cleared", s)
				}
				return want
			}
			// Vacuity guards: some node's minimum must be positive, so a
			// lower bound sits below its counter, and a full node with a
			// positive minimum must list fewer than Capacity counters, so
			// the counters at the minimum are filtered out.
			var sawMin, sawFiltered bool
			var evs []istream.Event
			var listed []sketch.Counter
			for s := 0; s < 40; s++ {
				evs = g.Next(s, evs[:0])
				observeAll(t, m, evs)
				for _, sk := range m.per {
					_, d := sk.Estimate(uint64(cfg.Items)) // never observed
					sawMin = sawMin || d > 0
					listed = sk.Tracked(listed)
					sawFiltered = sawFiltered || d > 0 && len(listed) < cfg.Capacity
				}
				if len(step(s)) == 0 {
					t.Fatalf("step %d: empty batch", s)
				}
			}
			if !sawMin || !sawFiltered {
				t.Fatalf("vacuous: positive minimum seen %v, a full node listing fewer than Capacity seen %v", sawMin, sawFiltered)
			}
			// Two nodes each push one item by MaxValue: the sum clamps, and
			// it must clamp after the nodes' terms are added, exactly as
			// the reference does.
			for node := 0; node < 2; node++ {
				if err := m.Observe(node, 3, topk.MaxValue); err != nil {
					t.Fatal(err)
				}
			}
			clamped := false
			for _, u := range step(40) {
				clamped = clamped || u.Value == topk.MaxValue
			}
			if !clamped {
				t.Fatal("vacuous: no aggregate clamped at MaxValue")
			}
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPushedNeverExceedsTruth checks the staleness argument of the package
// doc on three traces: after every Step, the last value pushed for every
// item — refreshed this step or kept from an earlier one — is at most the
// item's exact count so far. Vacuity guards: some check must read a value
// that was not refreshed in its step, and some pushed value must fall
// short of the truth, so the summaries are under pressure.
func TestPushedNeverExceedsTruth(t *testing.T) {
	cfg := testConfig()
	for _, g := range testTraces(cfg) {
		t.Run(g.Name(), func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			exact := make([]int64, cfg.Items)
			pushed := make(map[int]int64)
			var stale, short int
			var evs []istream.Event
			for s := 0; s < 40; s++ {
				evs = g.Next(s, evs[:0])
				observeAll(t, m, evs)
				for _, e := range evs {
					exact[e.Item] += e.Count
				}
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				stale += len(pushed)
				for _, u := range m.batch {
					if _, ok := pushed[u.Node]; ok {
						stale--
					}
					pushed[u.Node] = u.Value
				}
				for j, v := range pushed {
					if v > exact[j] {
						t.Fatalf("step %d: item %d pushed %d, exact count %d", s, j, v, exact[j])
					}
					if v < exact[j] {
						short++
					}
				}
			}
			if stale == 0 || short == 0 {
				t.Fatalf("vacuous: %d stale values checked, %d below the truth", stale, short)
			}
		})
	}
}

// TestStepAllocs enforces that a committed step allocates nothing: after a
// warm-up that has opened inner epochs, the process's malloc count over a
// window of steps (Observes included) is exactly 0. MemStats.Mallocs is
// the whole process's, so the least of three windows is taken;
// testing.AllocsPerRun would round a per-epoch allocation away. The
// subtest is named by its summary kind.
func TestStepAllocs(t *testing.T) {
	t.Run(SpaceSaving.String(), stepAllocs)
}

func stepAllocs(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	g := testTraces(cfg)[2] // churn: the top set keeps moving
	const pregen = 64
	batches := make([][]istream.Event, pregen)
	for s := range batches {
		batches[s] = g.Next(s, nil)
	}
	i := 0
	step := func() {
		observeAll(t, m, batches[i%pregen])
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 400 {
		step()
	}
	if m.inner.Epochs() < 2 {
		t.Fatalf("warm-up opened %d inner epochs, want several", m.inner.Epochs())
	}
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 200 {
			step()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("%d allocations over 200 steps, want exactly 0", least)
	}
}
