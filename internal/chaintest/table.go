// Package chaintest holds the inputs of the byte-identity chain: one table
// of workload × algorithm × fault-plan rows, the one driver that steps a
// system through a row, and the one recorder that digests every step.
// Each link of the chain — live, reset, faulty, facade, served, recovered
// and SSE — runs the table's rows and compares what it records with the
// direct lockstep run. Only _test.go files import this package.
package chaintest

import (
	"math/rand"
	"slices"
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/oracle"
	"topkmon/internal/stream"
	"topkmon/topk"
)

// Row is one line of the table.
type Row struct {
	Name   string // work/algorithm[/sparse][/faulty], or a kept row's name
	Work   string // the workload's name
	N, K   int
	Eps    eps.Eps
	Steps  int
	Seed   uint64 // the engine seed
	Algo   topk.Algorithm
	Sparse bool            // at most a quarter of the nodes move per step
	Faults *topk.FaultPlan // nil on a fault-free row
	Pin    uint64          // the pinned fold of the reference run, 0 if none
	gen    func() stream.Generator
}

// Batch is one step of a trace: the full value vector, and on a sparse row
// the ids whose value changed (nil on a full row: every node is pushed).
type Batch struct {
	Vals  []int64
	Dirty []int
	truth oracle.Truth // the referee's view of Vals, computed once
}

// Updates appends the batch's pushes to dst[:0].
func (b Batch) Updates(dst []topk.Update) []topk.Update {
	dst = dst[:0]
	if b.Dirty == nil {
		for i, v := range b.Vals {
			dst = append(dst, topk.Update{Node: i, Value: v})
		}
	}
	for _, i := range b.Dirty {
		dst = append(dst, topk.Update{Node: i, Value: b.Vals[i]})
	}
	return dst
}

// batch turns the generator's vector for step t into the row's batch. A
// sparse step moves only the nodes i ≡ t (mod 4) and holds the rest at
// their previous values, so its dirty set is at most a quarter of n even
// where the generator moves every node.
func (r Row) batch(t int, next []int64, prev Batch) Batch {
	if !r.Sparse || t == 0 {
		return Batch{Vals: next}
	}
	b := Batch{Vals: append([]int64(nil), prev.Vals...), Dirty: []int{}}
	for i := t % 4; i < len(next); i += 4 {
		if next[i] != b.Vals[i] {
			b.Vals[i] = next[i]
			b.Dirty = append(b.Dirty, i)
		}
	}
	return b
}

// Link names one link of the chain.
type Link int

const (
	Live Link = iota
	Reset
	Faulty
	Facade
	Served
	Recovered
	SSE
)

// maxSteps caps the steps a link runs of a row, so the whole chain costs
// `go test ./...` under a tenth of its wall time: fewer on the links whose
// every step is HTTP requests, fewest on the one that crosses a socket.
var maxSteps = map[Link]int{Live: 100, Reset: 100, Faulty: 100, Facade: 100, Served: 50, Recovered: 50, SSE: 25}

// Rows returns the table rows link l runs. The engine-level live and reset
// links take the fault-free rows (the faulty link runs the fault-armed ones
// on both engines), and the served, recovered and SSE links skip the rows
// with engine seed 0, which a tenant config cannot spell (its zero seed
// means the default). A link runs at most the first maxSteps[l] steps of a
// row; only the table's own tests in internal/sim (the pinned digests and
// the coverage check) run every row to the end. Under
// -short, and always on the served, recovered and SSE links, whose steps
// are HTTP requests, a link keeps the first row of each algorithm and of
// each workload, and the first fault-armed row of each algorithm; the
// table's order makes the first sparse row one of them.
func Rows(l Link) []Row {
	var rows []Row
	seen := map[string]bool{}
	for _, r := range Table {
		if r.Faults != nil && (l == Live || l == Reset) || r.Seed == 0 && l >= Served {
			continue
		}
		r.Steps, r.Pin = min(r.Steps, maxSteps[l]), 0
		// A row joins the subset when it is the first of its algorithm
		// or of its workload, or the first fault-armed one of its
		// algorithm.
		keys := []string{r.Algo.String(), r.Work}
		if r.Faults != nil {
			keys = []string{"faulty/" + r.Algo.String()}
		}
		if !seen[keys[0]] || !seen[keys[len(keys)-1]] || !testing.Short() && l < Served {
			rows = append(rows, r)
		}
		for _, k := range keys {
			seen[k] = true
		}
	}
	return rows
}

// row builds a table row; its name is work/algorithm, with /sparse or
// /faulty appended.
func row(work string, gen func() stream.Generator, k int, e eps.Eps, steps int, seed uint64,
	a topk.Algorithm, sparse bool, plan *topk.FaultPlan, pin uint64) Row {
	name := work + "/" + a.String()
	if sparse {
		name += "/sparse"
	}
	if plan != nil {
		name += "/faulty"
	}
	return Row{Name: name, Work: work, N: gen().N(), K: k, Eps: e, Steps: steps, Seed: seed,
		Algo: a, Sparse: sparse, Faults: plan, Pin: pin, gen: gen}
}

// pinned returns the rows of an oscillator workload the monitor digests
// pin: Approx, Dense and HalfEps, each with the fold its reference run
// must produce, and a sparse Approx row. A refactor of the protocol code
// must leave every fold unchanged; a change meant to move them re-records
// them in its own commit.
func pinned(work string, gen func() stream.Generator, k int, e eps.Eps, steps int, seed uint64,
	approx, dense, half uint64) []Row {
	return []Row{
		row(work, gen, k, e, steps, seed, topk.Approx, false, nil, approx),
		row(work, gen, k, e, steps, seed, topk.Dense, false, nil, dense),
		row(work, gen, k, e, steps, seed, topk.HalfEps, false, nil, half),
		row(work, gen, k, e, min(steps, 120), seed, topk.Approx, true, nil, 0),
	}
}

// stress is the invariant-stress oscillator of the given seed.
func stress(seed uint64) func() stream.Generator {
	return func() stream.Generator {
		return stream.NewOscillator(2, 12, 6, 50000, 50000*4/100, 50000*64, 700, seed*17+3)
	}
}

// Table is the chain's workload table. Every workload runs in full and in
// sparse batches; the adaptive ones (climber, descender, lower bound) are
// recorded against the direct lockstep run and replayed from there. The
// five oscillators last are the pinned ones: DENSEPROTOCOL's exercise
// workload, the SUBPROTOCOL tag-restore regression, and three
// invariant-stress cases.
var Table = func() []Row {
	e8, e4, e64 := eps.MustNew(1, 8), eps.MustNew(1, 4), eps.MustNew(1, 64)
	walk := func() stream.Generator { return stream.NewWalk(32, 100000, 400, 1<<24, 7) }
	jumps := func() stream.Generator { return stream.NewJumps(32, 100, 100000, 5) }
	climber := func() stream.Generator { return stream.NewClimber(3, 8, 1<<24) }
	descender := func() stream.Generator { return stream.NewDescender(3, 8, 1<<24) }
	lowerBound := func() stream.Generator { return stream.NewLowerBound(12, 4, 4, e8, 1<<20) }
	// Exact runs on pairwise-distinct values, as the exact problem assumes.
	distinctWalk := func() stream.Generator { return stream.Distinct{Inner: walk()} }
	distinctJumps := func() stream.Generator { return stream.Distinct{Inner: jumps()} }
	denseExercised := func() stream.Generator { return stream.NewOscillator(2, 18, 4, 1000, 40, 100000, 10, 77) }
	subLowerHalf := func() stream.Generator {
		return stream.NewOscillator(3, 16, 8, 65536, 65536*3/100, 65536*64, 65536/64, 501)
	}
	return slices.Concat([]Row{
		row("walk", walk, 4, e8, 150, 3, topk.Approx, false, nil, 0),
		row("walk", walk, 4, e8, 150, 3, topk.TopKProtocol, true, nil, 0),
		row("walk", distinctWalk, 4, e8, 150, 3, topk.Exact, false, nil, 0),
		row("walk", walk, 4, e8, 150, 3, topk.MidNaive, true, nil, 0),
		row("jumps", jumps, 4, e8, 100, 4, topk.Naive, false, nil, 0),
		row("jumps", distinctJumps, 4, e8, 100, 4, topk.Exact, true, nil, 0),
		row("jumps", jumps, 4, e8, 100, 4, topk.HalfEps, true, nil, 0),
		row("sub-lower-half", subLowerHalf, 4, e64, 120, 30, topk.Dense, true, nil, 0),
		row("climber", climber, 3, e8, 200, 5, topk.TopKProtocol, false, nil, 0),
		row("climber", climber, 3, e8, 200, 5, topk.Approx, true, nil, 0),
		row("descender", descender, 3, e8, 200, 6, topk.Approx, false, nil, 0),
		row("descender", descender, 3, e8, 200, 6, topk.MidNaive, true, nil, 0),
		row("lower-bound", lowerBound, 4, e8, 200, 7, topk.Approx, false, nil, 0),
		row("lower-bound", lowerBound, 4, e8, 200, 7, topk.HalfEps, true, nil, 0),
		row("walk", walk, 4, e8, 150, 3, topk.Approx, false, &topk.FaultPlan{Drop: 0.1, Dup: 0.05, Delay: 0.05,
			Crashes: []topk.Crash{{Node: 2, From: 20, Until: 60}}}, 0),
		row("sub-lower-half", subLowerHalf, 4, e64, 120, 30, topk.Dense, true, &topk.FaultPlan{Drop: 0.05, Dup: 0.02}, 0),
	},
		pinned("dense-exercised", denseExercised, 4, e4, 1500, 21, 0xa18c8aa9fe1a6cf7, 0xc0d2aec1fd749b, 0x8da3461721498544),
		pinned("sub-lower-half", subLowerHalf, 4, e64, 60, 30, 0x5608ace61bc23536, 0x4897256395dfdd70, 0x28be63a6ce0d67e8),
		pinned("stress/eps=1_16/seed=0", stress(0), 3, eps.MustNew(1, 16), 200, 0,
			0x896b9c6b121b4237, 0xf9f8d2a83356b6a4, 0x46324501d0ba56d),
		pinned("stress/eps=1_64/seed=5", stress(5), 3, e64, 200, 5,
			0x44aa0da1e8e4bf89, 0x9c6cf8a334f6f905, 0x4eb2339aa7b78e24),
		pinned("stress/eps=1_256/seed=0", stress(0), 3, eps.MustNew(1, 256), 200, 0,
			0x4a8c7fad45d98473, 0x5accaf40821dd8c6, 0x35b913086bc2e288),
	)
}()

// Kept returns the row that reproduces, value for value, a trace one link
// generated for itself before the table; that link still runs it under
// its old subtest names.
func Kept(name string) Row {
	r, ok := kept[name]
	if !ok {
		panic("chaintest: no kept row " + name)
	}
	r.Name, r.Work = name, name
	return r
}

var kept = func() map[string]Row {
	walk := func(n int, start, step, max int64, seed uint64, k int, e eps.Eps, steps int, engineSeed uint64) Row {
		gen := func() stream.Generator { return stream.NewWalk(n, start, step, max, seed) }
		return Row{N: n, K: k, Eps: e, Steps: steps, Seed: engineSeed, gen: gen}
	}
	e8 := eps.MustNew(1, 8)
	return map[string]Row{
		"live":          walk(12, 2000, 120, 1<<20, 5, 3, eps.MustNew(1, 5), 250, 42),
		"live/large":    walk(10000, 100000, 150, 1<<24, 17, 8, e8, 10, 271828),
		"reset":         walk(24, 5000, 300, 1<<20, 9, 4, eps.MustNew(1, 6), 120, 77),
		"faults":        walk(32, 100000, 500, 1<<24, 3, 4, e8, 150, 9),
		"facade/n=16":   walk(16, 100000, 400, 1<<24, 7, 4, e8, 200, 42),
		"facade/n=1024": walk(1024, 100000, 400, 1<<24, 7, 4, e8, 40, 42),
		"chaos":         walk(24, 100000, 400, 1<<24, 3, 4, e8, 80, 9),
		"steady":        walk(64, 100000, 400, 1<<24, 13, 8, e8, 512, 5),
		"serve":         {N: 48, K: 4, Eps: e8, Steps: 220, Seed: 11, gen: func() stream.Generator { return randWalk(48, 220, 11) }},
		"sse":           {N: 24, K: 3, Eps: e8, Steps: 160, Seed: 3, gen: func() stream.Generator { return churn(24, 3, 160) }},
		"live/invariants": {N: 19, K: 3, Eps: eps.MustNew(1, 4), Steps: 150, Seed: 41, gen: func() stream.Generator {
			return stream.NewOscillator(2, 13, 4, 20000, 20000*4/100, 2000000, 300, 9)
		}},
	}
}()

// randWalk is the math/rand walk the serve tests drew their batches from:
// the served and recovered links keep its values, and with them the
// journal bytes their kill@N subtests are named after.
func randWalk(n, steps int, seed uint64) stream.Generator {
	rng := rand.New(rand.NewSource(int64(seed) * 7919))
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = 5000 + rng.Int63n(10001)
	}
	m := make([][]int64, steps)
	for t := range m {
		for i := range cur {
			if t > 0 {
				cur[i] = max(cur[i]+rng.Int63n(401)-200, 0)
			}
		}
		m[t] = slices.Clone(cur)
	}
	return stream.NewReplay("rand-walk", m)
}

// churn rotates k hot nodes by one position per step over a flat
// background, so nearly every step changes the top-k set by one node.
func churn(n, k, steps int) stream.Generator {
	m := make([][]int64, steps)
	for t := range m {
		m[t] = make([]int64, n)
		for i := range m[t] {
			m[t][i] = int64(1000 + i)
		}
		for j := 0; j < k; j++ {
			m[t][(t+j)%n] = int64(900000 - j*10000)
		}
	}
	return stream.NewReplay("churn", m)
}
