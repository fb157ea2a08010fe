package items_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	istream "topkmon/internal/stream/items"
	"topkmon/topk"
	"topkmon/topk/items"
)

// drive feeds steps of the generator into the monitor (and, when tr is
// non-nil, into the exact ground truth), committing one monitor step per
// generator step.
func drive(t *testing.T, m *items.Monitor, g istream.Generator, tr *istream.Truth, steps int) {
	t.Helper()
	var evs []istream.Event
	for s := 0; s < steps; s++ {
		evs = g.Next(s, evs[:0])
		for _, e := range evs {
			if err := m.Observe(e.Node, e.Item, e.Count); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		if tr != nil {
			tr.ObserveEvents(evs)
		}
		if err := m.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
}

func zipfConfig(kind items.SketchKind) items.Config {
	return items.Config{
		Nodes: 8, Items: 256, K: 8,
		Epsilon: topk.MustEpsilon(1, 8),
		Sketch:  kind, Capacity: 128,
		Seed: 7,
	}
}

// TestRecallZipf is the end-to-end fidelity gate of this layer: on a
// zipf(s=1.1) trace over 256 items and 8 nodes, Space-Saving summaries of
// 128 counters per node must drive the monitor to recall@8 >= 0.9
// against exact ground truth — the documented operating point.
func TestRecallZipf(t *testing.T) {
	m, err := items.New(zipfConfig(items.SpaceSaving))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	g := istream.NewZipf(m.N(), m.Items(), 2000, 1.1, 13)
	tr := istream.NewTruth(m.Items())
	drive(t, m, g, tr, 50)
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	out := m.TopItems(nil)
	if len(out) != 8 {
		t.Fatalf("TopItems returned %d ids, want 8", len(out))
	}
	if r := tr.RecallAt(8, out); r < 0.9 {
		t.Fatalf("recall@8 = %v < 0.9 (space-saving c=128, zipf s=1.1)", r)
	}
	if c := m.Cost(); c.Steps != 50 || c.Messages <= 0 {
		t.Fatalf("implausible cost: %+v", c)
	}
}

// TestAllSketchKinds runs every summary through the layer: Check must
// hold throughout and recall must stay useful (the weaker 0.7 gate —
// Count-Min and Misra-Gries are not this layer's documented default).
func TestAllSketchKinds(t *testing.T) {
	for _, kind := range []items.SketchKind{items.SpaceSaving, items.MisraGries, items.CountMin} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := items.New(zipfConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			g := istream.NewZipf(m.N(), m.Items(), 1000, 1.1, 29)
			tr := istream.NewTruth(m.Items())
			drive(t, m, g, tr, 30)
			if err := m.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			if r := tr.RecallAt(8, m.TopItems(nil)); r < 0.7 {
				t.Fatalf("%s: recall@8 = %v < 0.7", kind, r)
			}
		})
	}
}

// TestDeterministicReplay pins the replay contract at the layer level:
// two monitors from the same Config see the same trace and must agree on
// every committed output and the final Cost; a Reset monitor must then
// reproduce the same run on the same buffers.
func TestDeterministicReplay(t *testing.T) {
	cfg := zipfConfig(items.SpaceSaving)
	cfg.Items, cfg.Capacity = 64, 32
	run := func(m *items.Monitor) ([][]int, topk.Cost) {
		g := istream.NewZipf(m.N(), m.Items(), 300, 1.2, 17)
		var outs [][]int
		var evs []istream.Event
		for s := 0; s < 25; s++ {
			evs = g.Next(s, evs[:0])
			for _, e := range evs {
				if err := m.Observe(e.Node, e.Item, e.Count); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, m.TopItems(nil))
		}
		return outs, m.Cost()
	}
	m1, err := items.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Close()
	m2, err := items.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	o1, c1 := run(m1)
	o2, c2 := run(m2)
	if !reflect.DeepEqual(o1, o2) || c1 != c2 {
		t.Fatalf("fresh monitors diverged")
	}
	if err := m1.Reset(cfg.Seed); err != nil {
		t.Fatal(err)
	}
	o3, c3 := run(m1)
	if !reflect.DeepEqual(o1, o3) || c1 != c3 {
		t.Fatalf("Reset replay diverged from fresh run")
	}
}

// TestConcurrentCalls runs the monitor from three goroutines at once (run
// it under -race): two Observe disjoint halves of the nodes, each in its
// events' order, while a third calls Step, Estimate and TopItems. Each node's
// sketch sees its own events in order whatever the interleave, so the
// final estimates must equal a sequential replay's, and the inner monitor
// must still pass Check.
func TestConcurrentCalls(t *testing.T) {
	for _, kind := range []items.SketchKind{items.SpaceSaving, items.MisraGries, items.CountMin} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := zipfConfig(kind)
			g := istream.NewZipf(cfg.Nodes, cfg.Items, 2000, 1.1, 13)
			var evs []istream.Event
			for s := 0; s < 10; s++ {
				evs = g.Next(s, evs)
			}
			m, err := items.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var observers, reader sync.WaitGroup
			done := make(chan struct{})
			for half := range 2 {
				observers.Add(1)
				go func() {
					defer observers.Done()
					for _, e := range evs {
						if e.Node*2/cfg.Nodes != half {
							continue
						}
						if err := m.Observe(e.Node, e.Item, e.Count); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			reader.Add(1)
			go func() {
				defer reader.Done()
				var top []int
				for j := 0; ; j++ {
					select {
					case <-done:
						return
					default:
					}
					if err := m.Step(); err != nil {
						t.Error(err)
						return
					}
					m.Estimate(j % cfg.Items)
					top = m.TopItems(top)
				}
			}()
			observers.Wait()
			close(done)
			reader.Wait()
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			if err := m.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			seq, err := items.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer seq.Close()
			for _, e := range evs {
				if err := seq.Observe(e.Node, e.Item, e.Count); err != nil {
					t.Fatal(err)
				}
			}
			for j := range cfg.Items {
				got, gotB := m.Estimate(j)
				want, wantB := seq.Estimate(j)
				if got != want || gotB != wantB {
					t.Fatalf("item %d: Estimate = (%d, %d), sequential replay (%d, %d)", j, got, gotB, want, wantB)
				}
			}
		})
	}
}

// TestObserveAllocs enforces the hot-path contract: staging an event
// allocates nothing, for every sketch kind.
func TestObserveAllocs(t *testing.T) {
	for _, kind := range []items.SketchKind{items.SpaceSaving, items.MisraGries, items.CountMin} {
		cfg := zipfConfig(kind)
		m, err := items.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		item := 0
		if avg := testing.AllocsPerRun(2000, func() {
			m.Observe(item&7, item%cfg.Items, 1)
			item++
		}); avg != 0 {
			t.Fatalf("%v: Observe allocates %v allocs/op, want 0", kind, avg)
		}
		m.Close()
	}
}

// TestEstimateAggregates checks Estimate sums across nodes and respects
// the Space-Saving over-estimate guarantee.
func TestEstimateAggregates(t *testing.T) {
	m, err := items.New(items.Config{Nodes: 3, Items: 16, K: 2, Epsilon: topk.MustEpsilon(1, 10), Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for node := 0; node < 3; node++ {
		for i := 0; i < 5; i++ {
			if err := m.Observe(node, 4, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	est, bound := m.Estimate(4)
	if est < 150 {
		t.Fatalf("Estimate(4) = %d, want >= 150 (space-saving never under-estimates)", est)
	}
	if bound < 0 {
		t.Fatalf("negative bound %d", bound)
	}
	if e, b := m.Estimate(-1); e != 0 || b != 0 {
		t.Fatalf("out-of-range Estimate = (%d,%d), want (0,0)", e, b)
	}
}

// TestNewRejectsBadSketch pins that New refuses a summary it cannot
// build, rather than panicking inside the sketch package or building
// another kind: a negative Capacity (0 selects the default) and a
// SketchKind outside the three.
func TestNewRejectsBadSketch(t *testing.T) {
	for _, tc := range []struct {
		kind     items.SketchKind
		capacity int
		ok       bool
	}{
		{items.SpaceSaving, 0, true},
		{items.CountMin, 1, true},
		{items.SpaceSaving, -1, false},
		{items.MisraGries, -1, false},
		{items.CountMin, -64, false},
		{items.SketchKind(7), 16, false},
		{items.SketchKind(-1), 16, false},
	} {
		t.Run(fmt.Sprintf("%v/c=%d", tc.kind, tc.capacity), func(t *testing.T) {
			m, err := items.New(items.Config{Nodes: 2, Items: 8, K: 1, Epsilon: topk.MustEpsilon(1, 10),
				Sketch: tc.kind, Capacity: tc.capacity})
			if (err == nil) != tc.ok {
				t.Fatalf("New: err = %v, want ok = %v", err, tc.ok)
			}
			if m != nil {
				m.Close()
			}
		})
	}
}

// TestValidationAndClose pins the error surface.
func TestValidationAndClose(t *testing.T) {
	e := topk.MustEpsilon(1, 10)
	if _, err := items.New(items.Config{Nodes: 0, Items: 4, K: 1, Epsilon: e}); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
	if _, err := items.New(items.Config{Nodes: 1, Items: 0, K: 1, Epsilon: e}); err == nil {
		t.Fatal("Items=0 accepted")
	}
	if _, err := items.New(items.Config{Nodes: 1, Items: 4, K: 5, Epsilon: e}); err == nil {
		t.Fatal("K > Items accepted")
	}
	if _, err := items.New(items.Config{Nodes: 1, Items: 4, K: 1}); err == nil {
		t.Fatal("zero Epsilon with default algorithm accepted")
	}
	if _, err := items.New(items.Config{Nodes: 1, Items: 4, K: 4, Epsilon: e}); err == nil {
		t.Fatal("K == Items accepted by the default algorithm")
	}
	whole, err := items.New(items.Config{Nodes: 1, Items: 4, K: 4, Epsilon: e,
		Monitor: []topk.Option{topk.WithMonitor(topk.Naive)}})
	if err != nil {
		t.Fatalf("K == Items under Naive: %v", err)
	}
	whole.Close()
	m, err := items.New(items.Config{Nodes: 2, Items: 4, K: 1, Epsilon: e})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(2, 0, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := m.Observe(0, 4, 1); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if err := m.Observe(0, 0, 0); err != nil {
		t.Fatalf("non-positive count must be ignored, got %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if err := m.Observe(0, 0, 1); err != topk.ErrClosed {
		t.Fatalf("Observe after Close: %v, want ErrClosed", err)
	}
	if err := m.Step(); err != topk.ErrClosed {
		t.Fatalf("Step after Close: %v, want ErrClosed", err)
	}
	if err := m.Reset(1); err != topk.ErrClosed {
		t.Fatalf("Reset after Close: %v, want ErrClosed", err)
	}
}
