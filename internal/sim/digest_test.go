package sim

import (
	"slices"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/oracle"
	"topkmon/topk"
)

// TestMonitorDigests pins, step by step, what the ε-monitors of Section 5
// do on dense oscillator workloads: every server-to-node call in call order
// with its arguments, the output ids in output order, every message counter
// by channel and by kind, the round high-water mark, the node tags, the
// epoch count, and the DENSE/SUB statistics each monitor exposes. Each
// reference run of a pinned chaintest row folds all of that into one
// FNV-64a digest, and the constants live in that table. A refactor of the
// protocol code must leave every digest unchanged; a change that is meant
// to move them re-records the constants in its own commit.
func TestMonitorDigests(t *testing.T) {
	var works []string
	for _, r := range chaintest.Table {
		if r.Pin != 0 && !slices.Contains(works, r.Work) {
			works = append(works, r.Work)
		}
	}
	for _, w := range works {
		t.Run(w, func(t *testing.T) {
			for _, r := range chaintest.Table {
				if r.Work != w || r.Pin == 0 {
					continue
				}
				ref := r.Reference()
				if ref.Pin != r.Pin {
					t.Errorf("%v digest %#x, want %#x", r.Algo, ref.Pin, r.Pin)
				}
				// SUBPROTOCOL runs on every pinned workload but the first.
				if w != "dense-exercised" && r.Algo != topk.HalfEps && ref.Sub == 0 {
					t.Errorf("%v made no SUBPROTOCOL call; the workload no longer covers it", r.Algo)
				}
			}
		})
	}
}

// TestTableCoverage holds the table to what the chain needs of it: all
// seven algorithms cross every link, sparse rows cross the served and
// recovered links, DENSEPROTOCOL and SUBPROTOCOL run, every fault-armed
// row drops messages, and every fault-free row keeps its algorithm's
// contract — Check passes at every step, and Exact, on pairwise-distinct
// values, outputs the exact top-k. The steps in breaks are the known
// exceptions: Dense run alone publishes a node clearly below v_k there
// (σ = k+1 at the first, σ = 1 at the others), and the test fails when
// the list stops matching, so a fix or a new break both show.
func TestTableCoverage(t *testing.T) {
	breaks := map[string][]int{
		"stress/eps=1_64/seed=5/dense":  {45},
		"stress/eps=1_256/seed=0/dense": {165, 172},
	}
	for l := chaintest.Live; l <= chaintest.SSE; l++ {
		algos, sparse := map[topk.Algorithm]bool{}, false
		for _, r := range chaintest.Rows(l) {
			algos[r.Algo], sparse = true, sparse || r.Sparse
		}
		if len(algos) != 7 || !sparse && (l == chaintest.Served || l == chaintest.Recovered) {
			t.Errorf("link %d runs the algorithms %v, sparse rows: %v", l, algos, sparse)
		}
	}

	var dense, sub int64
	for _, r := range chaintest.Table {
		r.Pin = 0 // the pinned folds are TestMonitorDigests' to check
		ref := r.Reference()
		dense, sub = dense+ref.Dense, sub+ref.Sub
		if r.Faults != nil {
			if ref.Obs[len(ref.Obs)-1].Cost.DroppedMsgs == 0 {
				t.Errorf("%s: the fault plan dropped no message", r.Name)
			}
			continue
		}
		var broken []int
		for i, o := range ref.Obs {
			truth := oracle.Compute(ref.Trace[i].Vals, r.K, r.Eps)
			err := truth.ValidateEps(o.Out)
			if r.Algo == topk.Exact {
				err = truth.ValidateExact(o.Out)
			}
			if err != nil || o.Check != "ok" {
				broken = append(broken, i)
				t.Logf("%s step %d: output %v breaks the contract: %v (Check %q)", r.Name, i, o.Out, err, o.Check)
			}
		}
		if !slices.Equal(broken, breaks[r.Name]) {
			t.Errorf("%s breaks its contract at steps %v, want %v", r.Name, broken, breaks[r.Name])
		}
	}
	if dense == 0 || sub == 0 {
		t.Errorf("the table ran %d DENSEPROTOCOL epochs and %d SUBPROTOCOL calls, want both > 0", dense, sub)
	}
}
