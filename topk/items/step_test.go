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
func referenceBatch(per []sketch.Summary, track int) []topk.Update {
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

func testConfig(kind SketchKind) Config {
	return Config{
		Nodes: 8, Items: 256, K: 8,
		Epsilon: topk.MustEpsilon(1, 8),
		Sketch:  kind, Capacity: 48,
		Seed: 7,
	}
}

var allKinds = []SketchKind{SpaceSaving, MisraGries, CountMin}

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
// Heavy → dedupe → sort → Estimate-per-pair step, entry for entry, for the
// three sketch kinds on three traces — through the steps where the
// summaries are not yet full (untracked estimate 0), into eviction
// pressure, and across a step whose aggregates clamp at topk.MaxValue.
func TestStepMatchesReference(t *testing.T) {
	for _, kind := range allKinds {
		cfg := testConfig(kind)
		for _, g := range testTraces(cfg) {
			t.Run(kind.String()+"/"+g.Name(), func(t *testing.T) {
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
				// Vacuity guards: the run must cover u = 0 and u > 0 for the
				// summaries that state one, and for Count-Min a kept count
				// that lags the live estimate.
				var sawZero, sawPositive, sawLag bool
				var evs []istream.Event
				var tracked []sketch.Counter
				for s := 0; s < 40; s++ {
					evs = g.Next(s, evs[:0])
					observeAll(t, m, evs)
					for _, sk := range m.per {
						u, uniform := sk.UntrackedEstimate()
						sawZero = sawZero || uniform && u == 0
						sawPositive = sawPositive || uniform && u > 0
						tracked = sk.Tracked(tracked)
						for _, c := range tracked {
							est, _ := sk.Estimate(c.Item)
							sawLag = sawLag || c.Count < est
						}
					}
					if len(step(s)) == 0 {
						t.Fatalf("step %d: empty batch", s)
					}
				}
				switch kind {
				case SpaceSaving:
					if !sawZero || !sawPositive {
						t.Fatalf("vacuous: untracked estimate zero seen %v, positive seen %v", sawZero, sawPositive)
					}
				case CountMin:
					if !sawLag {
						t.Fatal("vacuous: no kept count ever lagged the live estimate")
					}
				}
				// Two nodes each push one item past half of MaxValue: the sum
				// clamps, and it must clamp after the untracked estimates are
				// added, exactly as the reference does.
				for node := 0; node < 2; node++ {
					if err := m.Observe(node, 3, topk.MaxValue/2+1); err != nil {
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
}

// TestStepAllocs enforces that a committed step allocates nothing, for
// every sketch kind: after a warm-up that has opened inner epochs, the
// process's malloc count over a window of steps (Observes included) is
// exactly 0. MemStats.Mallocs is the whole process's, so the least of
// three windows is taken; testing.AllocsPerRun would round a per-epoch
// allocation away.
func TestStepAllocs(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := testConfig(kind)
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
		})
	}
}
