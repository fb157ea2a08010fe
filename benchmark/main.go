//go:build linux

// Command benchmark is the repository's one benchmark: six named workloads
// over the whole stack (embedded facade on both engines, child topkd
// volatile and durable, the item layer), the end-to-end metrics a user
// sees from an untraced run, and a per-layer table from a separate traced
// run. BENCHMARK.json at the repository root names the command, workloads,
// metrics and regression bounds; README.md explains how to read the output.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark --workload serve-durable --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runEnv is what a run hands every workload.
type runEnv struct {
	ctx   context.Context
	seed  uint64
	scale float64
	// runDir is this run's scratch directory under benchmark/out, removed
	// when the run ends.
	runDir string
	// traceDir, when set, receives trace-<workload>.json after a traced run.
	traceDir string
	// topkd is the built daemon; empty runs the serve workloads in-process
	// over httptest (the smoke test, which must not spawn children).
	topkd  string
	buildS float64
}

// passOut accumulates a run's passes: one sample per metric per pass, the
// ops attempted, and every correctness check that failed.
type passOut struct {
	s         samples
	attempted int
	errs      []string
	digests   []uint64 // traced passes: FNV-1a of every step's top-k
	spans     []span   // the last traced pass's spans
}

// check records a failed correctness check.
func (o *passOut) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// result is one run of one workload, traced or not.
type result struct {
	workload  string
	traced    bool
	passes    int
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
	digest    uint64
}

// runWorkload repeats passes of w until seconds have been measured (at
// least one pass) and reduces the samples to medians.
func runWorkload(env runEnv, w *workloadDef, traced bool, seconds float64) result {
	res := result{workload: w.name, traced: traced}
	out := passOut{s: samples{}}
	r, err := w.new(env)
	if err != nil {
		out.errs = append(out.errs, err.Error())
	} else {
		start := time.Now()
		for {
			res.passes++
			if err := r.pass(traced, &out); err != nil {
				out.errs = append(out.errs, err.Error())
				break
			}
			if env.ctx.Err() != nil {
				out.errs = append(out.errs, "interrupted")
				break
			}
			if time.Since(start).Seconds() >= seconds {
				break
			}
		}
	}

	// Same seed, same inputs: the message bill and the per-step outputs
	// must repeat exactly from pass to pass.
	if xs := out.s["msgs_per_update"]; len(xs) > 0 {
		for _, x := range xs {
			out.check(x == xs[0], "msgs_per_update differs between passes: %v vs %v", xs[0], x)
		}
	}
	for _, d := range out.digests {
		out.check(d == out.digests[0], "top-k digest differs between passes: %x vs %x", out.digests[0], d)
		res.digest = out.digests[0]
	}

	res.metrics = out.s.medians()
	defs := endToEnd
	if traced {
		defs = perLayer
		res.metrics["bench.build_s"] = env.buildS
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := res.metrics[d.name]
		if !traced {
			out.check(ok && v > 0, "end-to-end metric %s missing or zero", d.name)
		}
		out.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s = %v", d.name, v)
	}
	for name := range res.metrics {
		out.check(known[name], "metric %s is not in the benchmark's registry", name)
	}
	if traced && len(out.spans) > 0 && env.traceDir != "" {
		if err := writeSpans(filepath.Join(env.traceDir, "trace-"+w.name+".json"), out.spans); err != nil {
			out.errs = append(out.errs, err.Error())
		}
	}

	res.attempted = max(out.attempted, 1)
	res.errs = out.errs
	if len(res.errs) > 0 {
		res.failed = res.attempted // a failed check fails every op of the workload
	}
	if traced {
		res.metrics["bench.error_rate"] = float64(res.failed) / float64(res.attempted)
	}
	return res
}

// print writes the human table and then the result line the driver reads.
func (res result) print() {
	kind, defs := "untraced, end to end", endToEnd
	if res.traced {
		kind, defs = "traced, per layer", perLayer
	}
	fmt.Printf("== %s (%s): %d passes, %d ops attempted, %d failed\n",
		res.workload, kind, res.passes, res.attempted, res.failed)
	for _, e := range res.errs {
		fmt.Printf("   CHECK FAILED: %s\n", e)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		value := "-"
		if ok {
			value = fmt.Sprintf("%.4f", v)
		}
		row := fmt.Sprintf("   %-42s %14s %-5s", d.name, value, d.unit)
		if ok && d.moves != "" {
			row += "  -> " + d.moves
		}
		fmt.Println(strings.TrimRight(row, " "))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if res.traced {
		if v := res.metrics["bench.trace_overhead_ratio"]; v > 1.25 {
			fmt.Printf("   WARNING: tracing overhead %.2f > 1.25: per-layer times are inflated\n", v)
		}
		if v := res.metrics["bench.generator_cpu_share"]; v > 0.5 {
			fmt.Printf("   WARNING: load generator used %.0f %% of the CPU: the server was starved\n", 100*v)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // the values are finite floats and strings
	}
	fmt.Printf("%s\n", line)
}

// buildTopkd compiles cmd/topkd into dir and returns the binary's path.
func buildTopkd(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "topkd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/topkd")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/topkd: %w\n%s", err, msg)
	}
	return bin, nil
}

func run() int {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed: same seed, same inputs")
	seconds := flag.Float64("seconds", 10, "seconds each run measures")
	trace := flag.String("trace", "both", "0 = untraced end-to-end run, 1 = traced per-layer run, both")
	scale := flag.Float64("scale", 1, "multiplier on every workload's op counts per pass")
	flag.Parse()

	var selected []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		selected = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	var kinds []bool
	switch *trace {
	case "0":
		kinds = []bool{false}
	case "1":
		kinds = []bool{true}
	case "both":
		kinds = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Everything the run writes lives under benchmark/out in the checkout.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (go run ./benchmark)")
		return 2
	}
	outDir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	runDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(runDir)
	runDir, err = filepath.Abs(runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	env := runEnv{ctx: ctx, seed: *seed, scale: *scale, runDir: runDir, traceDir: outDir}
	for _, w := range selected {
		if strings.HasPrefix(w.name, "serve-") && env.topkd == "" {
			t := time.Now()
			env.topkd, err = buildTopkd(ctx, runDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			env.buildS = time.Since(t).Seconds()
		}
	}

	failed := false
	byName := map[string]result{}
	for _, w := range selected {
		for _, traced := range kinds {
			res := runWorkload(env, w, traced, *seconds)
			if traced {
				byName[w.name+"/traced"] = res
			} else {
				byName[w.name] = res
			}
			res.print()
			failed = failed || res.failed > 0
		}
	}

	// Both engines ran the same trace: the message bill and, when traced,
	// every step's output must be the same.
	if a, ok := byName["embed-churn"]; ok {
		if b, ok := byName["embed-churn-live"]; ok && a.metrics["msgs_per_update"] != b.metrics["msgs_per_update"] {
			fmt.Printf("CHECK FAILED: msgs_per_update %v on embed-churn, %v on embed-churn-live\n",
				a.metrics["msgs_per_update"], b.metrics["msgs_per_update"])
			failed = true
		}
	}
	if a, ok := byName["embed-churn/traced"]; ok {
		if b, ok := byName["embed-churn-live/traced"]; ok && a.digest != b.digest {
			fmt.Printf("CHECK FAILED: top-k digest %x on embed-churn, %x on embed-churn-live\n", a.digest, b.digest)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
