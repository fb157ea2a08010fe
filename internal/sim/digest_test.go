package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
)

// TestMonitorDigests pins, step by step, what the ε-monitors of Section 5
// do on dense oscillator workloads: every server-to-node call in call order
// with its arguments, the output ids in output order, every message counter
// by channel and by kind, the round high-water mark, the node tags, the
// epoch count, and the DENSE/SUB statistics each monitor exposes. Each run
// folds all of that into one FNV-64a digest. A
// refactor of the protocol code must leave every digest unchanged; a
// change that is meant to move them re-records the constants in its own
// commit.
func TestMonitorDigests(t *testing.T) {
	type workload struct {
		name       string
		k          int
		e          eps.Eps
		steps      int
		engineSeed uint64
		gen        func() stream.Generator
		approx     uint64 // Approx (Theorem 5.8)
		dense      uint64 // Dense alone, restarting on either callback
		halfEps    uint64 // HalfEps (Corollary 5.9)
		wantSub    bool   // the Approx and Dense runs must reach SUBPROTOCOL
	}
	stress := func(seed uint64) func() stream.Generator {
		return func() stream.Generator {
			return stream.NewOscillator(2, 12, 6, 50000, 50000*4/100, 50000*64, 700, seed*17+3)
		}
	}
	workloads := []workload{
		{
			// TestDenseProtocolIsExercised's workload.
			name: "dense-exercised", k: 4, e: eps.MustNew(1, 4), steps: 1500, engineSeed: 21,
			gen: func() stream.Generator {
				return stream.NewOscillator(2, 18, 4, 1000, 40, 100000, 10, 77)
			},
			approx: 0xb34cf10bcf3e3713, dense: 0x43762814a09e2da7, halfEps: 0x6d36881ff06647bc,
		},
		{
			// TestRegressionSubLowerHalfTagRestore's workload.
			name: "sub-lower-half", k: 4, e: eps.MustNew(1, 64), steps: 60, engineSeed: 30,
			gen: func() stream.Generator {
				return stream.NewOscillator(3, 16, 8, 65536, 65536*3/100, 65536*64, 65536/64, 501)
			},
			approx: 0x3ce9544f1487b9bb, dense: 0x2f672b2fd929a9c6, halfEps: 0xa5d818faff74d20c, wantSub: true,
		},
		// Three of TestApproxInvariantStress's cases.
		{name: "stress/eps=1_16/seed=0", k: 3, e: eps.MustNew(1, 16), steps: 200, engineSeed: 0, gen: stress(0),
			approx: 0x9fa654af559e1e07, dense: 0xf14326e071e48ec0, halfEps: 0x44fc7a2e8bd8a294, wantSub: true},
		{name: "stress/eps=1_64/seed=5", k: 3, e: eps.MustNew(1, 64), steps: 200, engineSeed: 5, gen: stress(5),
			approx: 0x8988bc35cc2a359, dense: 0x2829d4b7f0e7caab, halfEps: 0xf9f5156cc8d82bfc, wantSub: true},
		{name: "stress/eps=1_256/seed=0", k: 3, e: eps.MustNew(1, 256), steps: 200, engineSeed: 0, gen: stress(0),
			approx: 0xbf99fc5cc26ac1ed, dense: 0x36d97a3ec230dfe8, halfEps: 0xd588d359b2c8dae5, wantSub: true},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var ap *protocol.Approx
			got := digestRun(w.gen(), w.engineSeed, w.steps, func(c cluster.Cluster) (protocol.Monitor, func(h hash.Hash64)) {
				ap = protocol.NewApprox(c, w.k, w.e)
				return ap, func(h hash.Hash64) { putInts(h, ap.DenseEpochs(), ap.SubCalls()) }
			})
			if got != w.approx {
				t.Errorf("approx digest %#x, want %#x", got, w.approx)
			}

			var d *protocol.Dense
			got = digestRun(w.gen(), w.engineSeed, w.steps, func(c cluster.Cluster) (protocol.Monitor, func(h hash.Hash64)) {
				d = protocol.NewDense(c, w.k, w.e)
				restart := func() { d.StartWithProbe(protocol.TopM(c, w.k+1, nil)) }
				d.OnEpochEnd, d.OnSwitchTopK = restart, restart
				return d, func(h hash.Hash64) { putInts(h, d.SubCalls, d.Halvings) }
			})
			if got != w.dense {
				t.Errorf("dense digest %#x, want %#x", got, w.dense)
			}
			if w.wantSub && (ap.SubCalls() == 0 || d.SubCalls == 0) {
				t.Errorf("SUBPROTOCOL calls: approx %d, dense %d; the workload no longer covers it", ap.SubCalls(), d.SubCalls)
			}

			got = digestRun(w.gen(), w.engineSeed, w.steps, func(c cluster.Cluster) (protocol.Monitor, func(h hash.Hash64)) {
				return protocol.NewHalfEps(c, w.k, w.e), nil
			})
			if got != w.halfEps {
				t.Errorf("half-eps digest %#x, want %#x", got, w.halfEps)
			}
		})
	}
}

// digestRun drives the monitor that mk builds over gen on a lockstep
// engine, recording its server-to-node calls, and digests its state after
// every step; extra, when non-nil, adds the monitor's own statistics.
func digestRun(gen stream.Generator, seed uint64, steps int, mk func(cluster.Cluster) (protocol.Monitor, func(hash.Hash64))) uint64 {
	eng := lockstep.New(gen.N(), seed)
	h := fnv.New64a()
	m, extra := mk(recorder{eng, h})
	for ts := 0; ts < steps; ts++ {
		eng.Advance(gen.Next(ts))
		if ts == 0 {
			m.Start()
		} else {
			m.HandleStep()
		}
		out := m.Output()
		putInts(h, int64(ts), int64(len(out)))
		for _, id := range out {
			putInts(h, int64(id))
		}
		c := eng.Counters()
		for _, ch := range []metrics.Channel{metrics.NodeToServer, metrics.ServerToNode, metrics.Broadcast} {
			putInts(h, c.ByChannel(ch))
		}
		for k := wire.Kind(0); int(k) < wire.NumKinds; k++ {
			putInts(h, c.ByKind(k.String()))
		}
		putInts(h, c.MaxRoundsPerStep(), m.Epochs())
		for i := 0; i < eng.N(); i++ {
			putInts(h, int64(eng.Node(i).Tag))
		}
		if extra != nil {
			extra(h)
		}
		eng.EndStep()
	}
	return h.Sum64()
}

func putInts(h hash.Hash64, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// recorder writes each server-to-node call a monitor makes into the digest,
// in call order, before passing it on to the engine.
type recorder struct {
	cluster.Cluster
	h hash.Hash64
}

func (r recorder) BroadcastRule(rule *wire.FilterRule) {
	fmt.Fprintf(r.h, "B%v", *rule)
	r.Cluster.BroadcastRule(rule)
}

func (r recorder) SetFilter(id int, iv filter.Interval) {
	fmt.Fprintf(r.h, "F%d%v", id, iv)
	r.Cluster.SetFilter(id, iv)
}

func (r recorder) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	fmt.Fprintf(r.h, "T%d%v%v", id, t, iv)
	r.Cluster.SetTagFilter(id, t, iv)
}

func (r recorder) Probe(id int) wire.Report {
	fmt.Fprintf(r.h, "P%d", id)
	return r.Cluster.Probe(id)
}

func (r recorder) Collect(p wire.Pred) []wire.Report {
	fmt.Fprintf(r.h, "C%v", p)
	return r.Cluster.Collect(p)
}
