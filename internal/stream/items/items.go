// Package items provides item-granularity workload traces for the
// heavy-hitter monitoring layer: instead of one scalar value per node per
// step (package stream), a step here is a batch of (node, item, count)
// events drawn from m logical items spread across n nodes. Generators are
// seeded and deterministic — the same seed replays the identical event
// sequence — matching the repo-wide replay contract. The package also
// hosts the exact-frequency ground truth and the tie-aware recall@k
// evaluator the experiment harness scores sketch-backed monitoring with.
package items

import (
	"fmt"
	"math"
	"sort"

	"topkmon/internal/rngx"
)

// Event is one observation: count arrivals of item at node.
type Event struct {
	Node  int
	Item  int
	Count int64
}

// Generator produces one batch of item events per time step. No program
// names the type; the tests of this package and topk/items range over
// generators through it.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Nodes returns the number of distributed nodes events land on.
	Nodes() int
	// Items returns the size m of the item universe.
	Items() int
	// Next appends step t's events to dst and returns it (called with
	// t = 0, 1, … strictly in order).
	Next(t int, dst []Event) []Event
}

// zipfWeights returns the cumulative Zipf(s) weights over ranks 0..m-1
// (weight of rank r is (r+1)^-s), for inverse-CDF sampling.
func zipfWeights(m int, s float64) []float64 {
	cum := make([]float64, m)
	acc := 0.0
	for r := 0; r < m; r++ {
		acc += 1 / math.Pow(float64(r+1), s)
		cum[r] = acc
	}
	return cum
}

// sampleRank draws a rank from the cumulative weights.
func sampleRank(rng *rngx.Source, cum []float64) int {
	u := rng.Float64() * cum[len(cum)-1]
	return sort.SearchFloat64s(cum, u)
}

// scatter returns a seeded permutation mapping rank -> item id, so item
// ids carry no information about hotness (generators that kept rank==id
// would make "return the smallest ids" accidentally score well).
func scatter(m int, rng *rngx.Source) []int {
	return rng.Perm(m)
}

// --- Zipfian trace ---

// Zipf emits PerStep unit-count events per step; items follow a Zipf(s)
// rank distribution through a seeded rank->item scatter, and each event
// lands on a uniformly random node. This is the canonical skewed
// heavy-hitter workload: a few globally heavy items, a long light tail.
type Zipf struct {
	NodesN  int
	ItemsM  int
	PerStep int
	S       float64

	cum      []float64
	rankItem []int
	rng      *rngx.Source
}

// NewZipf returns a seeded zipfian item-trace generator (s > 0).
func NewZipf(nodes, items, perStep int, s float64, seed uint64) *Zipf {
	if nodes < 1 || items < 1 || perStep < 1 || s <= 0 {
		panic("items: NewZipf needs nodes, items, perStep >= 1 and s > 0")
	}
	rng := rngx.New(seed)
	return &Zipf{
		NodesN: nodes, ItemsM: items, PerStep: perStep, S: s,
		cum:      zipfWeights(items, s),
		rankItem: scatter(items, rng.Child(1)),
		rng:      rng.Child(2),
	}
}

// Name implements Generator.
func (g *Zipf) Name() string { return fmt.Sprintf("zipf(s=%.2g,m=%d)", g.S, g.ItemsM) }

// Nodes implements Generator.
func (g *Zipf) Nodes() int { return g.NodesN }

// Items implements Generator.
func (g *Zipf) Items() int { return g.ItemsM }

// Next implements Generator.
func (g *Zipf) Next(_ int, dst []Event) []Event {
	for i := 0; i < g.PerStep; i++ {
		dst = append(dst, Event{
			Node:  g.rng.Intn(g.NodesN),
			Item:  g.rankItem[sampleRank(g.rng, g.cum)],
			Count: 1,
		})
	}
	return dst
}

// --- Bursty trace ---

// Bursty layers transient hotspots over a zipfian background: each step a
// fresh burst starts with probability BurstProb, pinning a uniformly
// random item for BurstLen steps at BurstRate extra events per step (all
// on one uniformly chosen node — bursts are local, the way a flash crowd
// hits one frontend). Bursts stress the monitor's reaction time: a
// burst item must climb into the top-k while it burns and fall out after.
type Bursty struct {
	Background *Zipf
	BurstProb  float64
	BurstLen   int
	BurstRate  int64

	rng    *rngx.Source
	active []burst
}

type burst struct {
	item, node, left int
}

// NewBursty returns a seeded bursty item-trace generator over a Zipf(s)
// background. No program calls it; the tests of this package and
// topk/items do.
func NewBursty(nodes, items, perStep int, s float64, burstProb float64, burstLen int, burstRate int64, seed uint64) *Bursty {
	if burstLen < 1 || burstRate < 1 {
		panic("items: NewBursty needs burstLen, burstRate >= 1")
	}
	return &Bursty{
		Background: NewZipf(nodes, items, perStep, s, seed),
		BurstProb:  burstProb, BurstLen: burstLen, BurstRate: burstRate,
		rng: rngx.New(seed).Child(3),
	}
}

// Name implements Generator.
func (g *Bursty) Name() string {
	return fmt.Sprintf("bursty(p=%g,len=%d,rate=%d)", g.BurstProb, g.BurstLen, g.BurstRate)
}

// Nodes implements Generator.
func (g *Bursty) Nodes() int { return g.Background.NodesN }

// Items implements Generator.
func (g *Bursty) Items() int { return g.Background.ItemsM }

// Next implements Generator.
func (g *Bursty) Next(t int, dst []Event) []Event {
	dst = g.Background.Next(t, dst)
	if g.rng.Bool(g.BurstProb) {
		g.active = append(g.active, burst{
			item: g.rng.Intn(g.Background.ItemsM),
			node: g.rng.Intn(g.Background.NodesN),
			left: g.BurstLen,
		})
	}
	keep := g.active[:0]
	for _, b := range g.active {
		dst = append(dst, Event{Node: b.node, Item: b.item, Count: g.BurstRate})
		if b.left--; b.left > 0 {
			keep = append(keep, b)
		}
	}
	g.active = keep
	return dst
}

// --- Adversarial churn ---

// Churn is the adversarial workload for cumulative-count monitoring: a
// zipfian trace whose rank->item assignment rotates every Period steps —
// the current hottest item is demoted to coldest and every other item
// promotes one rank. The instantaneous top-k therefore drifts
// continuously while cumulative counts (what the sketches accumulate)
// lag behind, so recall measured against a trailing window punishes any
// monitor that only ever looks backwards.
type Churn struct {
	Background *Zipf
	Period     int
}

// NewChurn returns a seeded churn generator rotating hotness every period
// steps. No program calls it; the tests of this package and topk/items do.
func NewChurn(nodes, items, perStep int, s float64, period int, seed uint64) *Churn {
	if period < 1 {
		panic("items: NewChurn needs period >= 1")
	}
	return &Churn{Background: NewZipf(nodes, items, perStep, s, seed), Period: period}
}

// Name implements Generator.
func (g *Churn) Name() string { return fmt.Sprintf("churn(period=%d)", g.Period) }

// Nodes implements Generator.
func (g *Churn) Nodes() int { return g.Background.NodesN }

// Items implements Generator.
func (g *Churn) Items() int { return g.Background.ItemsM }

// Next implements Generator.
func (g *Churn) Next(t int, dst []Event) []Event {
	if t > 0 && t%g.Period == 0 {
		ri := g.Background.rankItem
		hot := ri[0]
		copy(ri, ri[1:])
		ri[len(ri)-1] = hot
	}
	return g.Background.Next(t, dst)
}
