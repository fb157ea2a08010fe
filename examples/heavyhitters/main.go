// Heavyhitters: track the top-k ITEMS of a distributed event stream with
// constant per-node state. 8 ingest nodes see a zipf-skewed stream of
// 100k events over 4096 distinct items; each node summarises its share
// in a 256-counter Space-Saving sketch, and the sketch estimates feed
// the ε-Top-k monitor (topk/items) — so the full filter protocol, cost
// accounting, and referee run over item aggregates. The example keeps an
// exact per-item count on the side and scores the monitor's recall
// against it, then prints the communication bill: the point is that the
// protocol's messages are governed by top-k churn, not by event volume.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"topkmon/topk"
	"topkmon/topk/items"
)

func main() {
	const (
		nodes    = 8
		universe = 4096
		k        = 10
		capacity = 256 // per-node Space-Saving counters: 16x fewer than items
		steps    = 100
		perStep  = 1000
		zipfS    = 1.2
	)

	mon, err := items.New(items.Config{
		Nodes: nodes, Items: universe, K: k,
		Epsilon:  topk.MustEpsilon(1, 8),
		Sketch:   items.SpaceSaving,
		Capacity: capacity,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	// The workload: item popularity follows Zipf(s) over a shuffled id
	// space, each event lands on a random node. Exact counts are kept on
	// the side purely to referee the approximation.
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, zipfS, 1, universe-1)
	ids := rng.Perm(universe)
	exact := make([]int64, universe)

	for t := 0; t < steps; t++ {
		for i := 0; i < perStep; i++ {
			item := ids[int(zipf.Uint64())]
			node := rng.Intn(nodes)
			if err := mon.Observe(node, item, 1); err != nil {
				log.Fatal(err)
			}
			exact[item]++
		}
		// One Step = one committed monitor time step: Step reads every
		// counter each node's sketch tracks (Tracked), sums the per-item
		// estimates and pushes them through the filter protocol.
		if err := mon.Step(); err != nil {
			log.Fatal(err)
		}
		if err := mon.Check(); err != nil {
			log.Fatalf("step %d: ε-referee: %v", t, err)
		}
	}

	// Score the final output against the exact counts (tie-aware: any
	// item tied with the exact k-th count is a legitimate answer).
	top := mon.TopItems(nil)
	order := make([]int, universe)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if exact[order[a]] != exact[order[b]] {
			return exact[order[a]] > exact[order[b]]
		}
		return order[a] < order[b]
	})
	threshold := exact[order[k-1]]
	hits := 0
	fmt.Printf("top-%d items (space-saving c=%d per node, %d events):\n", k, capacity, steps*perStep)
	for _, item := range top {
		est, bound := mon.Estimate(item)
		mark := " "
		if exact[item] >= threshold {
			mark = "*"
			hits++
		}
		fmt.Printf("  %s item %4d  est %6d ±%4d  exact %6d\n", mark, item, est, bound, exact[item])
	}
	recall := float64(hits) / float64(k)
	fmt.Printf("recall@%d vs exact ground truth: %.2f\n", k, recall)
	if recall < 0.9 {
		log.Fatalf("recall %.2f below the 0.9 the documented sizing guarantees", recall)
	}

	cost := mon.Cost()
	events := float64(steps * perStep)
	fmt.Printf("\ncommunication: %d messages over %d steps (%.1f msgs/step)\n",
		cost.Messages, cost.Steps, float64(cost.Messages)/float64(cost.Steps))
	fmt.Printf("vs shipping every event to the server: %d messages (%.0fx fewer)\n",
		int64(events), math.Round(events/float64(cost.Messages)))
	fmt.Println("(Cost bills the filter protocol only, not Step's reads of the nodes' counters)")
}
