package exp

import (
	"strings"
	"sync"
	"testing"

	"topkmon/internal/chaintest"
	"topkmon/internal/cluster"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode,
// asserting each produces at least one non-empty table and, where the
// experiment has a verdict, that every finding of it holds.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(Options{Quick: true, Seed: 1})
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("table %q is empty", tb.Title)
				}
				if !strings.Contains(tb.Title, e.ID) {
					t.Errorf("table title %q does not carry the experiment id", tb.Title)
				}
			}
			if e.Verdict == nil {
				return
			}
			for _, f := range e.Verdict(tables) {
				if !f.OK() {
					t.Error(f)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("phantom experiment found")
	}
}

func TestRegistryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q metadata incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 14 {
		t.Errorf("expected 14 experiments, got %d", len(seen))
	}
}

// TestProbesMatchLoop runs every experiment's quick tables with the engine
// of each monitor-driven run wrapped in chaintest.ProbeChecker, on
// lockstep and on live × 3 shards: every epoch opening of every E-table
// workload returns the repeated-FindMax loop's nodes, in its order.
func TestProbesMatchLoop(t *testing.T) {
	for _, eng := range []string{"lockstep", "live/m=3"} {
		t.Run(eng, func(t *testing.T) {
			var mu sync.Mutex
			var checkers []*chaintest.ProbeChecker
			var lives []*live.Cluster
			wrapEngine = func(e cluster.Engine, n int, seed uint64) cluster.Engine {
				mu.Lock()
				defer mu.Unlock()
				if e == nil {
					e = lockstep.New(n, seed)
				}
				if eng == "live/m=3" {
					lv := live.New(n, seed, live.WithShards(3))
					if l, ok := e.(*lockstep.Engine); ok {
						lv.DirectReports = l.DirectReports
					}
					lives = append(lives, lv)
					e = lv
				}
				pc := chaintest.NewProbeChecker(e)
				checkers = append(checkers, pc)
				return pc
			}
			defer func() {
				wrapEngine = nil
				for _, lv := range lives {
					lv.Close()
				}
			}()
			for _, e := range All() {
				e.Run(Options{Quick: true, Seed: 1})
			}
			checked := 0
			for _, pc := range checkers {
				if pc.Err != nil {
					t.Fatal(pc.Err)
				}
				checked += pc.Checked
			}
			if checked == 0 {
				t.Fatal("no run opened an epoch")
			}
			t.Logf("%d runs, %d probe reports checked", len(checkers), checked)
		})
	}
}
