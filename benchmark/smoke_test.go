//go:build linux

package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// layersOf names, per workload, the per-layer prefixes its traced run must
// fill in; every other per-layer metric reads 0 there.
var layersOf = map[string][]string{
	"embed-quiet-wide": {"topk.", "cluster.advance", "cluster.sweep", "protocol.", "bench.trace_overhead_ratio", "bench.span_coverage_ratio"},
	"embed-churn":      {"topk.", "cluster.advance", "cluster.sweep", "protocol.", "bench.trace_overhead_ratio", "bench.span_coverage_ratio"},
	"embed-churn-live": {"topk.", "cluster.", "protocol.", "bench.trace_overhead_ratio", "bench.span_coverage_ratio"},
	"serve-volatile":   {"serve.", "wal.", "topk.update_batch.p50_us", "protocol.msgs", "bench.generator_cpu_share", "bench.trace_overhead_ratio"},
	"serve-durable":    {"serve.", "wal.", "topk.update_batch.p50_us", "protocol.msgs", "bench.generator_cpu_share", "bench.trace_overhead_ratio"},
	"items-zipf":       {"sketch.", "items.", "cluster.advance", "protocol.msgs", "bench.trace_overhead_ratio", "bench.span_coverage_ratio"},
}

// TestSmoke runs every workload, untraced and traced, at a sliver of its
// size (the serve ones in-process, no child) and asserts that each named
// metric comes out, is finite, and that every correctness check passes.
func TestSmoke(t *testing.T) {
	emitted := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			env := runEnv{ctx: context.Background(), seed: 2, scale: 0.005, runDir: t.TempDir()}
			res := runWorkload(env, w, traced, 0)
			for _, e := range res.errs {
				t.Errorf("%s traced=%v: %s", w.name, traced, e)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.name, traced, res.attempted, res.failed)
			}
			if !traced {
				for _, d := range endToEnd {
					if v, ok := res.metrics[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.name, d.name, v, ok)
					}
				}
				continue
			}
			for name, v := range res.metrics {
				emitted[name] = true
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: per-layer metric %s = %v", w.name, name, v)
				}
			}
			for _, prefix := range layersOf[w.name] {
				found := false
				for _, d := range perLayer {
					if strings.HasPrefix(d.name, prefix) {
						found = true
						if _, ok := res.metrics[d.name]; !ok {
							t.Errorf("%s: per-layer metric %s not emitted", w.name, d.name)
						}
					}
				}
				if !found {
					t.Errorf("%s: no per-layer metric starts with %q", w.name, prefix)
				}
			}
		}
	}
	for _, d := range perLayer {
		if !emitted[d.name] {
			t.Errorf("per-layer metric %s is emitted by no workload", d.name)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps the root BENCHMARK.json — what the
// driver reads — in step with the names, units, directions and bounds the
// program prints.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, got, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: BENCHMARK.json bound %v, program %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}

// TestSelfTimes checks the span → self-time arithmetic on nested, sibling
// and zero-length spans, and that children outlasting their parent by more
// than 5 % fail the reduction.
func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{name: spUpdateBatch, parent: -1, start: 0, end: 100 * ms},        // 0: root
		{name: spAdvance, parent: 0, start: 5 * ms, end: 35 * ms},         // 1: child, 30
		{name: spHandleStep, parent: 0, start: 40 * ms, end: 90 * ms},     // 2: child, 50
		{name: spSweep, parent: 2, start: 45 * ms, end: 55 * ms},          // 3: grandchild, 10
		{name: spSweep, parent: 2, start: 60 * ms, end: 80 * ms},          // 4: its sibling, 20
		{name: spProbe, parent: 2, start: 85 * ms, end: 85 * ms},          // 5: zero length
		{name: spUpdateBatch, parent: -1, start: 100 * ms, end: 100 * ms}, // 6: zero-length root
	}
	lt, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[spanName][3]time.Duration{ // total, self, calls
		spUpdateBatch: {100 * ms, 20 * ms, 2},
		spAdvance:     {30 * ms, 30 * ms, 1},
		spHandleStep:  {50 * ms, 20 * ms, 1},
		spSweep:       {30 * ms, 30 * ms, 2},
		spProbe:       {0, 0, 1},
	}
	for name, w := range want {
		if lt.total[name] != w[0] || lt.self[name] != w[1] || time.Duration(lt.calls[name]) != w[2] {
			t.Errorf("%s: total %v self %v calls %d, want %v %v %d",
				spanNames[name], lt.total[name], lt.self[name], lt.calls[name], w[0], w[1], w[2])
		}
	}
	if got := lt.coverage(100 * ms); got != 1 {
		t.Errorf("coverage %v, want 1: self times must telescope to the root spans", got)
	}

	// Children 4 % longer than the parent: clock granularity, clamped to 0.
	slack := []span{
		{name: spHandleStep, parent: -1, start: 0, end: 100 * ms},
		{name: spSweep, parent: 0, start: 0, end: 104 * ms},
	}
	lt, err = selfTimes(slack)
	if err != nil || lt.self[spHandleStep] != 0 {
		t.Errorf("4 %% overshoot: self %v err %v, want 0 and nil", lt.self[spHandleStep], err)
	}
	// 6 % longer: mis-nested spans, loud failure.
	slack[1].end = 106 * ms
	if _, err := selfTimes(slack); err == nil {
		t.Error("children outlasting their parent by 6 % must fail the reduction")
	}
}

// TestInputsArePureFunctionOfSeed pins the inputs contract: same seed, same
// trace; another seed, another trace.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	w := churnWalk
	w.steps = 50
	a, b, c := genWalk(w, 7), genWalk(w, 7), genWalk(w, 8)
	same := func(x, y walkTrace) bool {
		for i := range x.batches {
			for j := range x.batches[i] {
				if x.batches[i][j] != y.batches[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed produced different traces")
	}
	if same(a, c) {
		t.Error("different seeds produced the same trace")
	}
}
