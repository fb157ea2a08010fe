package topk_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/eps"
	"topkmon/topk"
)

func TestNewValidation(t *testing.T) {
	e := topk.MustEpsilon(1, 8)
	cases := []struct {
		name string
		k    int
		opts []topk.Option
		want string
	}{
		{"no nodes", 3, nil, "node count"},
		{"k too large", 9, []topk.Option{topk.WithNodes(8)}, "outside"},
		{"k zero", 0, []topk.Option{topk.WithNodes(8)}, "outside"},
		{"unknown algorithm", 2, []topk.Option{topk.WithNodes(8), topk.WithMonitor(topk.Algorithm(99))}, "unknown algorithm"},
		{"unknown engine", 2, []topk.Option{topk.WithNodes(8), topk.WithEngine(topk.EngineKind(9))}, "unknown engine"},
		{"NaN fault rate", 2, []topk.Option{topk.WithNodes(8), topk.WithEngine(topk.Live), topk.WithFaults(&topk.FaultPlan{Drop: math.NaN()})}, "rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := topk.New(tc.k, e, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestAlgorithmPreconditions: New returns an error, and builds no engine,
// for a k = n or an ε = 0 that the selected algorithm's constructor
// rejects, and builds every other combination, on both engines.
func TestAlgorithmPreconditions(t *testing.T) {
	for _, tc := range []struct {
		algo              topk.Algorithm
		kEqualsN, epsZero bool // accepted?
	}{
		{topk.Approx, false, false},
		{topk.Exact, false, true},
		{topk.TopKProtocol, false, true},
		{topk.Dense, false, false},
		{topk.HalfEps, false, false},
		{topk.Naive, true, true},
		{topk.MidNaive, false, true},
	} {
		for _, engine := range []topk.EngineKind{topk.Lockstep, topk.Live} {
			for _, c := range []struct {
				name string
				k, n int
				e    topk.Epsilon
				ok   bool
			}{
				{"k=n", 4, 4, topk.MustEpsilon(1, 8), tc.kEqualsN},
				{"eps=0", 2, 8, topk.Zero, tc.epsZero},
				{"k<n", 2, 8, topk.MustEpsilon(1, 8), true},
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.algo, engine, c.name), func(t *testing.T) {
					m, err := topk.New(c.k, c.e, topk.WithNodes(c.n), topk.WithEngine(engine), topk.WithMonitor(tc.algo))
					if c.ok != (err == nil) {
						t.Fatalf("New(k=%d, n=%d, ε=%s) error = %v, want accepted = %v", c.k, c.n, c.e, err, c.ok)
					}
					if m != nil {
						m.Close()
					}
				})
			}
		}
	}
}

func TestEpsilonValidation(t *testing.T) {
	if _, err := topk.NewEpsilon(3, 2); err == nil {
		t.Error("ε ≥ 1 accepted")
	}
	if _, err := topk.NewEpsilon(-1, 2); err == nil {
		t.Error("ε < 0 accepted")
	}
	e := topk.MustEpsilon(2, 16)
	if e.String() != "1/8" {
		t.Errorf("ε not reduced: %s", e)
	}
	if !topk.Zero.IsZero() {
		t.Error("Zero.IsZero() = false")
	}
}

func TestPushValidation(t *testing.T) {
	m, err := topk.New(2, topk.MustEpsilon(1, 4), topk.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Update(4, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := m.Update(-1, 1); err == nil {
		t.Error("negative node accepted")
	}
	if err := m.Update(0, -5); err == nil {
		t.Error("negative value accepted")
	}
	if err := m.Update(0, topk.MaxValue+1); err == nil {
		t.Error("oversized value accepted")
	}
	// A rejected batch must not commit a step.
	if err := m.UpdateBatch([]topk.Update{{Node: 0, Value: 1}, {Node: 99, Value: 1}}); err == nil {
		t.Error("batch with bad node accepted")
	}
	if got := m.Steps(); got != 0 {
		t.Errorf("rejected batch committed %d steps", got)
	}
}

func TestReadsBeforeFirstStep(t *testing.T) {
	m, err := topk.New(2, topk.MustEpsilon(1, 4), topk.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.TopK(nil); len(got) != 0 {
		t.Errorf("TopK before first step = %v", got)
	}
	if err := m.Check(); err != nil {
		t.Errorf("Check before first step: %v", err)
	}
	if c := m.Cost(); c.Messages != 0 || c.Steps != 0 {
		t.Errorf("Cost before first step = %+v", c)
	}
}

func TestStagedPushInvisibleUntilFlush(t *testing.T) {
	m, err := topk.New(1, topk.Zero, topk.WithNodes(3), topk.WithMonitor(topk.Naive))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.UpdateBatch([]topk.Update{{0, 10}, {1, 20}, {2, 30}}); err != nil {
		t.Fatal(err)
	}
	if got := m.TopK(nil); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("TopK = %v, want [2]", got)
	}
	// Stage a push that would change the maximum; not visible yet.
	if err := m.Update(0, 99); err != nil {
		t.Fatal(err)
	}
	if got := m.TopK(nil); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("staged push visible before Flush: TopK = %v", got)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.TopK(nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("TopK after Flush = %v, want [0]", got)
	}
	if got := m.Steps(); got != 2 {
		t.Errorf("Steps = %d, want 2", got)
	}
}

func TestHeartbeatFlushIsQuiet(t *testing.T) {
	m, err := topk.New(1, topk.MustEpsilon(1, 4), topk.WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.UpdateBatch([]topk.Update{{0, 100}, {1, 50}, {2, 10}, {3, 5}}); err != nil {
		t.Fatal(err)
	}
	settled := m.Cost()
	for range 10 {
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Cost()
	if c.Steps != settled.Steps+10 {
		t.Errorf("heartbeats committed %d steps, want %d", c.Steps, settled.Steps+10)
	}
	if c.Messages != settled.Messages {
		t.Errorf("quiet heartbeats spent %d messages", c.Messages-settled.Messages)
	}
}

// TestQuietFlushNoIndexFallbacks is the facade-level quiet-step regression
// for the violator set: once the monitor has settled, heartbeat
// flushes with unchanged values drain violations via routed sweeps,
// so Cost.IndexFallbacks must not move — on either engine. A regression to
// full-scan violation sweeps would not move this counter (full scans forced
// by routing policy bill fallbacks only for unroutable predicates), but a
// regression in the routing POLICY — PredViolating reclassified as
// unroutable — shows up here immediately.
func TestQuietFlushNoIndexFallbacks(t *testing.T) {
	for name, ek := range map[string]topk.EngineKind{"lockstep": topk.Lockstep, "live": topk.Live} {
		t.Run(name, func(t *testing.T) {
			m, err := topk.New(2, topk.MustEpsilon(1, 4), topk.WithNodes(16), topk.WithEngine(ek))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			updates := make([]topk.Update, 16)
			for i := range updates {
				updates[i] = topk.Update{Node: i, Value: int64(100 + i*10)}
			}
			if err := m.UpdateBatch(updates); err != nil {
				t.Fatal(err)
			}
			settled := m.Cost()
			for range 20 {
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			c := m.Cost()
			if c.IndexFallbacks != settled.IndexFallbacks {
				t.Errorf("quiet flushes moved IndexFallbacks by %d, want 0",
					c.IndexFallbacks-settled.IndexFallbacks)
			}
		})
	}
}

func TestSubscribe(t *testing.T) {
	m, err := topk.New(1, topk.Zero, topk.WithNodes(3), topk.WithMonitor(topk.Naive))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	events := m.Subscribe()

	if err := m.UpdateBatch([]topk.Update{{0, 10}, {1, 20}, {2, 30}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Step != 1 || !reflect.DeepEqual(ev.TopK, []int{2}) {
			t.Errorf("event = %+v, want step 1 topk [2]", ev)
		}
	default:
		t.Fatal("no event after first step")
	}

	// A step that does not change the set delivers nothing.
	if err := m.UpdateBatch([]topk.Update{{1, 21}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Errorf("unchanged set delivered event %+v", ev)
	default:
	}

	// A step that moves the maximum delivers the new set.
	if err := m.UpdateBatch([]topk.Update{{0, 99}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Step != 3 || !reflect.DeepEqual(ev.TopK, []int{0}) {
			t.Errorf("event = %+v, want step 3 topk [0]", ev)
		}
	default:
		t.Fatal("no event after set change")
	}

	// Close closes the subscription.
	m.Close()
	if _, open := <-events; open {
		t.Error("subscription channel still open after Close")
	}
}

func TestUnsubscribe(t *testing.T) {
	m, err := topk.New(1, topk.Zero, topk.WithNodes(3), topk.WithMonitor(topk.Naive))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	gone := m.Subscribe()
	kept := m.Subscribe()

	// Unsubscribe closes exactly the removed channel; the survivor keeps
	// receiving.
	m.Unsubscribe(gone)
	if _, open := <-gone; open {
		t.Fatal("unsubscribed channel still open")
	}
	if err := m.UpdateBatch([]topk.Update{{0, 10}, {1, 20}, {2, 30}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-kept:
		if ev.Step != 1 {
			t.Errorf("surviving subscriber got %+v", ev)
		}
	default:
		t.Fatal("surviving subscriber got nothing after set change")
	}

	// Foreign and repeated unsubscribes are no-ops, including after Close.
	m.Unsubscribe(gone)
	m.Unsubscribe(make(chan topk.Event))
	m.Close()
	m.Unsubscribe(kept)
}

func TestParsers(t *testing.T) {
	if e, err := topk.ParseEpsilon("1/8"); err != nil || e.String() != "1/8" {
		t.Errorf("ParseEpsilon(1/8) = %v, %v", e, err)
	}
	for _, bad := range []string{"", "0.125", "1/0", "8/1", "x/y"} {
		if _, err := topk.ParseEpsilon(bad); err == nil {
			t.Errorf("ParseEpsilon(%q) accepted", bad)
		}
	}
	if k, err := topk.ParseEngine("live"); err != nil || k != topk.Live {
		t.Errorf("ParseEngine(live) = %v, %v", k, err)
	}
	if _, err := topk.ParseEngine("vax"); err == nil {
		t.Error("ParseEngine(vax) accepted")
	}
	// The -monitor flags and tenant configs spell these names.
	for a, name := range map[topk.Algorithm]string{
		topk.Approx: "approx", topk.Exact: "exact", topk.TopKProtocol: "topk-protocol",
		topk.Dense: "dense", topk.HalfEps: "half-eps", topk.Naive: "naive", topk.MidNaive: "mid-naive",
	} {
		if a.String() != name {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(a), a, name)
		}
		if got, err := topk.ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, a)
		}
	}
	for in, want := range map[string]topk.Algorithm{"exact-mid": topk.Exact, "topk": topk.TopKProtocol} {
		if a, err := topk.ParseAlgorithm(in); err != nil || a != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, a, err, want)
		}
	}
	if s := topk.Algorithm(99).String(); s != "Algorithm(?)" {
		t.Errorf("Algorithm(99).String() = %q", s)
	}
	if _, err := topk.ParseAlgorithm("quantum"); err == nil {
		t.Error("ParseAlgorithm(quantum) accepted")
	}

	plan, err := topk.ParseFaultPlan("drop=0.1,dup=0.05,delay=0.2,retries=5,crash=2@100:300,crash=5@500:700")
	if err != nil {
		t.Fatal(err)
	}
	want := &topk.FaultPlan{Drop: 0.1, Dup: 0.05, Delay: 0.2, Retries: 5,
		Crashes: []topk.Crash{{Node: 2, From: 100, Until: 300}, {Node: 5, From: 500, Until: 700}}}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("ParseFaultPlan = %+v, want %+v", plan, want)
	}
	if p, err := topk.ParseFaultPlan(""); err != nil || p != nil {
		t.Errorf("ParseFaultPlan(\"\") = %v, %v; want nil, nil", p, err)
	}
	for _, bad := range []string{"drop", "drop=x", "retries=many", "crash=2", "crash=2@5", "warp=1"} {
		if _, err := topk.ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

func TestCheckWiring(t *testing.T) {
	// The naive monitor on distinct values is always exact, so Check
	// passes; this exercises the referee wiring end to end.
	m, err := topk.New(2, topk.MustEpsilon(1, 8), topk.WithNodes(8), topk.WithMonitor(topk.Naive))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	batch := []topk.Update{{0, 10}, {1, 400}, {2, 30}, {3, 900}, {4, 55}, {5, 1}, {6, 77}, {7, 300}}
	if err := m.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(); err != nil {
		t.Errorf("Check on a valid output: %v", err)
	}
	if got := m.TopK(nil); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("TopK = %v, want [1 3]", got)
	}
}

func TestClosedMonitor(t *testing.T) {
	m, err := topk.New(1, topk.Zero, topk.WithNodes(2), topk.WithMonitor(topk.Naive))
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateBatch([]topk.Update{{0, 5}, {1, 2}})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := m.Update(0, 1); err != topk.ErrClosed {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
	if err := m.Flush(); err != topk.ErrClosed {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := m.Reset(1); err != topk.ErrClosed {
		t.Errorf("Reset after Close = %v, want ErrClosed", err)
	}
	// Reads stay valid.
	if got := m.TopK(nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("TopK after Close = %v", got)
	}
	if c := m.Cost(); c.Steps != 1 {
		t.Errorf("Cost after Close = %+v", c)
	}
	// Subscribing after Close yields a closed channel.
	if _, open := <-m.Subscribe(); open {
		t.Error("Subscribe after Close returned an open channel")
	}
}

// TestAllAlgorithmsRun smoke-tests every selectable algorithm through the
// facade on the first chaintest row that runs it, Check-validated each
// step.
func TestAllAlgorithmsRun(t *testing.T) {
	for a := topk.Approx; a <= topk.MidNaive; a++ {
		i := slices.IndexFunc(chaintest.Table, func(r chaintest.Row) bool { return r.Algo == a && r.Faults == nil })
		r := chaintest.Table[i]
		t.Run(a.String(), func(t *testing.T) {
			p := chaintest.NewPusher(r)
			defer p.M.Close()
			for step, o := range chaintest.Run(r.Reference().Trace, p.Step) {
				if o.Check != "ok" {
					t.Fatalf("%s step %d: %s", r.Name, step, o.Check)
				}
			}
			if got := len(p.M.TopK(nil)); got != r.K {
				t.Errorf("|TopK| = %d, want %d", got, r.K)
			}
		})
	}
}

// TestWrapEpsRoundTrip pins the scaffolding conversion used by internal/sim.
func TestWrapEpsRoundTrip(t *testing.T) {
	e := eps.MustNew(3, 16)
	if got := topk.WrapEps(e).String(); got != "3/16" {
		t.Errorf("WrapEps → %s", got)
	}
}
