package nodecore

import (
	"reflect"
	"slices"
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// checkActive asserts the active-list invariant: the list is exactly the
// nodes whose MFActive flag is set, in ascending id.
func checkActive(t *testing.T, sh *Shard) {
	t.Helper()
	var want []*Node
	for _, nd := range sh.Nodes() {
		if nd.MFActive {
			want = append(want, nd)
		}
	}
	if got := sh.ScanList(wire.AboveActive(-1)); !slices.Equal(got, want) {
		t.Fatalf("active list holds %d nodes, a scan of the MFActive flags finds %d", len(got), len(want))
	}
}

// The value shapes that stress the bucket coarsening hardest, as in the
// lockstep index property test.
func testDistributions(r *rngx.Source) map[string]func(i int) int64 {
	return map[string]func(i int) int64{
		"random":    func(int) int64 { return r.Int63n(1 << 30) },
		"all-equal": func(int) int64 { return 4711 }, // every node in one bucket
		"one-hot-bucket": func(i int) int64 { // dense cluster + sparse rest
			if i%8 == 0 {
				return r.Int63n(eps.MaxValue)
			}
			return (1 << 20) + r.Int63n(1<<19)
		},
		"bucket-boundaries": func(int) int64 { // 2^k-1 / 2^k straddles
			return int64(1)<<uint(1+r.Intn(38)) - r.Int63n(2)
		},
		"all-zero": func(int) int64 { return 0 },
	}
}

// TestMatchersEqualFilteredScanList is the property the engines' sweeps
// rest on: for every predicate kind, over the adversarial value shapes and
// under churn from every Shard mutator — unicast and broadcast filter
// assignments, the three max-find broadcasts and Reset — the matcher form
// returns exactly the nodes of ScanList that Match — which are exactly the
// nodes of a full scan that Match — in ascending id; ScanSize is the length
// of that ScanList, and Collect reports exactly the matchers.
func TestMatchersEqualFilteredScanList(t *testing.T) {
	const base, n, rounds = 300, 133, 60
	for name := range testDistributions(rngx.New(0)) {
		t.Run(name, func(t *testing.T) {
			r := rngx.New(911)
			dist := testDistributions(r)[name]
			sh := NewShard(base, n, rngx.New(1))
			matched := 0
			for round := 0; round < rounds; round++ {
				for i := range sh.Nodes() {
					if round == 0 || r.Intn(3) == 0 {
						sh.Install(base+i, dist(i))
					}
				}
				switch round % 7 {
				case 0:
					lo := r.Int63n(1 << 22)
					sh.SetFilter(base+r.Intn(n), filter.Make(lo, lo+r.Int63n(1<<22)))
				case 1:
					sh.MaxFindInit(r.Int63n(1<<21), round%14 == 1)
				case 2:
					sh.MaxFindRaise(base+r.Intn(n), r.Int63n(1<<29))
				case 3:
					sh.MaxFindExclude(base + r.Intn(n))
				case 4:
					lo := r.Int63n(1 << 22)
					sh.SetTagFilter(base+r.Intn(n), wire.Tag(r.Intn(int(wire.NumTags))), filter.Make(lo, lo+r.Int63n(1<<22)))
				case 5:
					lo := r.Int63n(1 << 22)
					sh.ApplyRule(wire.NewFilterRule().
						WithRetag(wire.TagV2, wire.TagNone).
						With(wire.TagNone, filter.Make(lo, lo+r.Int63n(1<<22))))
				case 6:
					sh.Reset(rngx.New(uint64(round)))
				}
				checkActive(t, sh)

				lo := r.Int63n(1 << 30)
				for _, p := range []wire.Pred{
					wire.Violating(),
					wire.AboveActive(-1),
					wire.AboveActive(r.Int63n(1 << 30)),
					wire.InRange(lo, lo+r.Int63n(1<<28)),
					wire.InRange(9, 3),
					wire.InRange(0, eps.MaxValue),
					wire.InRange(4711, 4711),
					wire.HasTag(wire.TagNone),
					wire.HasTag(wire.TagV2),
				} {
					var filtered, full []*Node
					var reports []wire.Report
					scan := sh.ScanList(p)
					if got := sh.ScanSize(p); got != len(scan) {
						t.Fatalf("round %d %+v: ScanSize %d, ScanList has %d nodes", round, p, got, len(scan))
					}
					for _, nd := range scan {
						if nd.Match(p) {
							filtered = append(filtered, nd)
						}
					}
					for _, nd := range sh.Nodes() {
						if nd.Match(p) {
							full = append(full, nd)
							reports = append(reports, nd.Report())
						}
					}
					got := sh.Matchers(p)
					if !slices.Equal(got, filtered) {
						t.Fatalf("round %d %+v: Matchers returns %d nodes, ScanList filtered by Match %d",
							round, p, len(got), len(filtered))
					}
					if !slices.Equal(got, full) {
						t.Fatalf("round %d %+v: Matchers returns %d nodes, a full scan matches %d",
							round, p, len(got), len(full))
					}
					if col := sh.Collect(nil, p); !reflect.DeepEqual(col, reports) || sh.Kept() != len(got) {
						t.Fatalf("round %d %+v: Collect reports %d of %d matchers, or moved the kept list (%d)",
							round, p, len(col), len(reports), sh.Kept())
					}
					matched += len(got)
				}
			}
			if matched == 0 {
				t.Fatal("no predicate ever matched a node: the property was never exercised")
			}
		})
	}
}

// TestActiveListMirrorsTheFlag pins the three edges of the active-list
// invariant a sweep cannot see: a value change leaves the list alone (Match
// decides per sweep), Exclude benches a node that is not on the list, and
// Reset empties it.
func TestActiveListMirrorsTheFlag(t *testing.T) {
	sh := NewShard(10, 6, rngx.New(1))
	for i := range sh.Nodes() {
		sh.Install(10+i, int64(100*(i+1))) // 100 .. 600
	}
	sh.MaxFindInit(250, true) // ids 12..15 active
	checkActive(t, sh)
	if got := len(sh.Matchers(wire.AboveActive(-1))); got != 4 {
		t.Fatalf("%d active nodes above -1, want 4", got)
	}

	sh.Install(13, 0) // id 13 drops to 0 and stays active
	checkActive(t, sh)
	if got := len(sh.Matchers(wire.AboveActive(-1))); got != 4 {
		t.Errorf("%d active nodes above -1 after a value change, want 4 (the flag did not move)", got)
	}
	if got := len(sh.Matchers(wire.AboveActive(50))); got != 3 {
		t.Errorf("%d active nodes above 50, want 3 (Match tests the value)", got)
	}

	sh.MaxFindExclude(10) // id 10 was never active
	if !sh.Node(10).MFExcluded {
		t.Error("Exclude of a node off the list did not set MFExcluded")
	}
	sh.MaxFindExclude(14) // from the middle of the list
	checkActive(t, sh)
	sh.MaxFindInit(-1, false)
	checkActive(t, sh)
	if sh.Node(10).MFActive || sh.Node(14).MFActive {
		t.Error("a non-resetting Init re-activated an excluded node")
	}

	sh.Reset(rngx.New(1))
	checkActive(t, sh)
	if got := sh.ScanList(wire.AboveActive(-1)); len(got) != 0 {
		t.Errorf("Reset left %d nodes on the active list", len(got))
	}
}
