package nodecore

import (
	"math"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

func newNode(t *testing.T, id int) *Node {
	t.Helper()
	return New(id)
}

func TestViolationClassification(t *testing.T) {
	nd := newNode(t, 0)
	nd.SetFilter(filter.Make(10, 20))
	nd.Observe(15)
	if nd.Violation() != filter.DirNone {
		t.Error("inside filter must not violate")
	}
	nd.Observe(25)
	if nd.Violation() != filter.DirUp {
		t.Error("above filter must violate up")
	}
	nd.Observe(5)
	if nd.Violation() != filter.DirDown {
		t.Error("below filter must violate down")
	}
}

func TestMatchPredicates(t *testing.T) {
	nd := newNode(t, 3)
	nd.Observe(50)
	nd.SetFilter(filter.Make(0, 40))
	if !nd.Match(wire.Violating()) {
		t.Error("violating node must match PredViolating")
	}
	nd.SetFilter(filter.All)
	if nd.Match(wire.Violating()) {
		t.Error("contained node must not match PredViolating")
	}
	if !nd.Match(wire.InRange(50, 50)) || nd.Match(wire.InRange(51, 99)) {
		t.Error("InRange boundaries wrong")
	}
	nd.SetTag(wire.TagV2)
	if !nd.Match(wire.HasTag(wire.TagV2)) || nd.Match(wire.HasTag(wire.TagV1)) {
		t.Error("HasTag wrong")
	}
	if !nd.Match(wire.AboveActive(49)) || nd.Match(wire.AboveActive(50)) {
		t.Error("AboveActive threshold wrong")
	}
	sh := NewShard(3, 1)
	sh.Install(3, 50)
	sh.MaxFindInit(-1, true)
	if !sh.Match(3, wire.AboveActive(49)) || sh.Match(3, wire.AboveActive(50)) {
		t.Error("AboveActive threshold wrong on an active node")
	}
	sh.MaxFindExclude(3)
	if sh.Match(3, wire.AboveActive(0)) {
		t.Error("inactive node must not match AboveActive")
	}
}

func TestApplyFilterRule(t *testing.T) {
	nd := newNode(t, 1)
	nd.SetTag(wire.TagV2S2)
	nd.SetFilter(filter.Make(1, 2))
	rule := new(wire.FilterRule).
		WithRetag(wire.TagV2S2, wire.TagV2).
		With(wire.TagV2, filter.Make(30, 40))
	nd.ApplyFilterRule(rule)
	if nd.Tag != wire.TagV2 || nd.Filter != filter.Make(30, 40) {
		t.Errorf("rule application failed: %v %v", nd.Tag, nd.Filter)
	}
}

// TestMaxFindLifecycle walks one node through the max-find broadcasts; its
// flags are its shard's (MaxFind).
func TestMaxFindLifecycle(t *testing.T) {
	sh := NewShard(2, 1)
	active := func() bool { a, _ := sh.MaxFind(2); return a }
	sh.Install(2, 100)
	sh.MaxFindInit(-1, true)
	if !active() {
		t.Error("node above floor must activate")
	}
	sh.MaxFindRaise(5, 100) // best equals value: deactivate
	if active() {
		t.Error("node at best must deactivate")
	}
	sh.MaxFindInit(-1, false)
	if !active() {
		t.Error("re-init must reactivate non-excluded node")
	}
	sh.MaxFindExclude(2)
	if a, excluded := sh.MaxFind(2); a || !excluded {
		t.Error("exclusion must bench the node")
	}
	sh.MaxFindInit(-1, false)
	if active() {
		t.Error("excluded node must stay benched without reset")
	}
	sh.MaxFindInit(-1, true)
	if !active() {
		t.Error("reset must clear exclusion")
	}
	sh.MaxFindRaise(2, 50) // holder deactivates even above best
	if active() {
		t.Error("holder must deactivate on raise")
	}
}

func TestMaxFindInitFloor(t *testing.T) {
	sh := NewShard(4, 1)
	sh.Install(4, 10)
	sh.MaxFindInit(10, true)
	if a, _ := sh.MaxFind(4); a {
		t.Error("node at floor must not activate")
	}
	sh.MaxFindInit(9, true)
	if a, _ := sh.MaxFind(4); !a {
		t.Error("node above floor must activate")
	}
}

func TestExistenceRounds(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ExistenceRounds(n); got != want {
			t.Errorf("ExistenceRounds(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestExistenceFinalRoundIsCertain: in round γ every matcher sends, and the
// sampler returns every rank without a draw from the server stream.
func TestExistenceFinalRoundIsCertain(t *testing.T) {
	const n = 64
	gaps := NewGaps(n)
	gamma := ExistenceRounds(n)
	rng := rngx.New(5).Child(ServerRNG)
	for _, m := range []int{1, 2, 37, n} {
		before := *rng
		ranks := gaps.Ranks(nil, rng, gamma, m)
		if len(ranks) != m || ranks[0] != 0 || ranks[m-1] != int32(m-1) {
			t.Fatalf("final round over %d matchers sends ranks %v, want all of them", m, ranks)
		}
		if *rng != before {
			t.Fatalf("final round over %d matchers drew from the server stream", m)
		}
	}
}

// TestExistenceSendRate: round r sends each matcher with probability 2^r/n;
// checked empirically at r = 3, n = 64 (p = 1/8) over 64 matchers, the
// ranks drawn from a server stream.
func TestExistenceSendRate(t *testing.T) {
	const n, r, trials = 64, 3, 1000
	gaps := NewGaps(n)
	rng := rngx.New(123).Child(ServerRNG)
	hits := 0
	var ranks []int32
	for i := 0; i < trials; i++ {
		ranks = gaps.Ranks(ranks[:0], rng, r, n)
		hits += len(ranks)
	}
	rate := float64(hits) / (trials * n)
	if math.Abs(rate-0.125) > 0.01 {
		t.Errorf("round-%d send rate %f, want 0.125", r, rate)
	}
}
