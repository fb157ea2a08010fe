package vindex

import (
	"slices"
	"testing"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// routed is a Router over its own nodes, maintained the way an engine
// maintains it: install and setFilter re-derive the index and mirror
// entries next to the node mutation, the max-find broadcasts go through the
// Router.
type routed struct {
	base  int
	nodes []*nodecore.Node
	r     Router
}

func newRouted(base, n int) *routed {
	root := rngx.New(1)
	rt := &routed{base: base, nodes: make([]*nodecore.Node, n), r: NewRouter(base, n)}
	for i := range rt.nodes {
		rt.nodes[i] = nodecore.New(base+i, root)
	}
	return rt
}

func (rt *routed) install(i int, v int64) {
	nd := rt.nodes[i]
	nd.Observe(v)
	rt.r.Idx.Update(nd.ID, v)
	rt.r.Mir.Set(nd.ID, v, nd.Filter)
}

func (rt *routed) setFilter(i int, iv filter.Interval) {
	nd := rt.nodes[i]
	nd.SetFilter(iv)
	rt.r.Mir.Set(nd.ID, nd.Value, iv)
}

// checkActive asserts the active-list invariant: the list is exactly the
// nodes whose MFActive flag is set, in ascending id.
func (rt *routed) checkActive(t *testing.T) {
	t.Helper()
	var want []*nodecore.Node
	for _, nd := range rt.nodes {
		if nd.MFActive {
			want = append(want, nd)
		}
	}
	if got := rt.r.ScanList(wire.AboveActive(-1), rt.nodes, rt.base); !slices.Equal(got, want) {
		t.Fatalf("active list holds %d nodes, a scan of the MFActive flags finds %d", len(got), len(want))
	}
}

// The value shapes that stress the bucket coarsening hardest, as in the
// lockstep index property test.
func testDistributions(n int, r *rngx.Source) map[string]func(i int) int64 {
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
// under filter and max-find churn, the matcher form returns exactly the
// nodes of ScanList that Match — which are exactly the nodes of a full scan
// that Match — in ascending id; and ScanSize is the length of that ScanList.
func TestMatchersEqualFilteredScanList(t *testing.T) {
	const base, n, rounds = 300, 133, 60
	for name := range testDistributions(n, rngx.New(0)) {
		t.Run(name, func(t *testing.T) {
			r := rngx.New(911)
			dist := testDistributions(n, r)[name]
			rt := newRouted(base, n)
			matched := 0
			for round := 0; round < rounds; round++ {
				for i := range rt.nodes {
					if round == 0 || r.Intn(3) == 0 {
						rt.install(i, dist(i))
					}
				}
				switch round % 4 {
				case 0:
					lo := r.Int63n(1 << 22)
					rt.setFilter(r.Intn(n), filter.Make(lo, lo+r.Int63n(1<<22)))
				case 1:
					rt.r.MaxFindInit(rt.nodes, r.Int63n(1<<21), round%8 == 1)
				case 2:
					rt.r.MaxFindRaise(base+r.Intn(n), r.Int63n(1<<29))
				case 3:
					rt.r.MaxFindExclude(rt.nodes[r.Intn(n)])
				}
				rt.checkActive(t)

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
					var filtered, full []*nodecore.Node
					scan := rt.r.ScanList(p, rt.nodes, base)
					if got := rt.r.ScanSize(p); got != len(scan) {
						t.Fatalf("round %d %+v: ScanSize %d, ScanList has %d nodes", round, p, got, len(scan))
					}
					for _, nd := range scan {
						if nd.Match(p) {
							filtered = append(filtered, nd)
						}
					}
					for _, nd := range rt.nodes {
						if nd.Match(p) {
							full = append(full, nd)
						}
					}
					got := rt.r.Matchers(p, rt.nodes, base)
					if !slices.Equal(got, filtered) {
						t.Fatalf("round %d %+v: Matchers returns %d nodes, ScanList filtered by Match %d",
							round, p, len(got), len(filtered))
					}
					if !slices.Equal(got, full) {
						t.Fatalf("round %d %+v: Matchers returns %d nodes, a full scan matches %d",
							round, p, len(got), len(full))
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
	rt := newRouted(10, 6)
	for i := range rt.nodes {
		rt.install(i, int64(100*(i+1))) // 100 .. 600
	}
	rt.r.MaxFindInit(rt.nodes, 250, true) // ids 12..15 active
	rt.checkActive(t)
	if got := len(rt.r.Matchers(wire.AboveActive(-1), rt.nodes, 10)); got != 4 {
		t.Fatalf("%d active nodes above -1, want 4", got)
	}

	rt.install(3, 0) // id 13 drops to 0 and stays active
	rt.checkActive(t)
	if got := len(rt.r.Matchers(wire.AboveActive(-1), rt.nodes, 10)); got != 4 {
		t.Errorf("%d active nodes above -1 after a value change, want 4 (the flag did not move)", got)
	}
	if got := len(rt.r.Matchers(wire.AboveActive(50), rt.nodes, 10)); got != 3 {
		t.Errorf("%d active nodes above 50, want 3 (Match tests the value)", got)
	}

	rt.r.MaxFindExclude(rt.nodes[0]) // id 10 was never active
	if !rt.nodes[0].MFExcluded {
		t.Error("Exclude of a node off the list did not set MFExcluded")
	}
	rt.r.MaxFindExclude(rt.nodes[4]) // id 14, from the middle of the list
	rt.checkActive(t)
	rt.r.MaxFindInit(rt.nodes, -1, false)
	rt.checkActive(t)
	if rt.nodes[0].MFActive || rt.nodes[4].MFActive {
		t.Error("a non-resetting Init re-activated an excluded node")
	}

	for _, nd := range rt.nodes {
		nd.Reset(rngx.New(1))
	}
	rt.r.Reset()
	rt.checkActive(t)
	if got := rt.r.ScanList(wire.AboveActive(-1), rt.nodes, 10); len(got) != 0 {
		t.Errorf("Reset left %d nodes on the active list", len(got))
	}
}
