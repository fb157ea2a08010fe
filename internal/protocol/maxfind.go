package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/wire"
)

// FindMax computes the node holding the largest value among participating
// nodes (those not excluded by previous runs) using O(log n) messages in
// expectation — the algorithm behind Lemma 2.6. Of tied values the node
// with the largest id wins: the max-find order is (value, id).
//
// It repeatedly runs an EXISTENCE sweep for "active and above the current
// best": the terminating round's senders form a roughly uniform sample of
// the remaining candidates, so raising the best to the sample's maximum
// halves the candidate set in expectation, giving O(log n) iterations of
// O(1) expected messages each. When reset is true, exclusions from earlier
// runs are cleared.
func FindMax(c cluster.Cluster, reset bool) (wire.Report, bool) {
	return findMax(c, reset, wire.Report{}, false, nil)
}

// findMax is FindMax started from best when found is set: a report of a
// node not excluded, which the server already holds. Its Init is then
// MaxFindSeed, whose floor keeps best's ties active, and the first sweep
// asks for the nodes above best. The max-find fails when best's node does
// not acknowledge that Init: the nodes may then hold a stale active list,
// whose silence would pass best off as the maximum unheard. The senders of
// every sweep are offered to seen, when it is not nil.
func findMax(c cluster.Cluster, reset bool, best wire.Report, found bool, seen *topSeen) (wire.Report, bool) {
	if !found {
		c.MaxFindInit(-1, reset)
	} else if !c.MaxFindSeed(best) {
		return wire.Report{}, false
	}
	for {
		p := wire.AboveActive(-1)
		if found {
			p = wire.AboveBest(best)
		}
		senders := c.Sweep(p)
		if len(senders) == 0 {
			return best, found
		}
		top := senders[0]
		for _, s := range senders[1:] {
			if above(s, top) {
				top = s
			}
		}
		if seen != nil {
			seen.add(senders)
		}
		best, found = top, true
		c.MaxFindRaise(best.ID, best.Value)
	}
}

// above reports whether a precedes b in the max-find order.
func above(a, b wire.Report) bool { return wire.Above(a.Value, int64(a.ID), b.Value, int64(b.ID)) }

// TopM computes the nodes holding the m largest values in the max-find
// order (value, then id): the result is ordered by decreasing value, and
// of tied values the larger id comes first, so it is a function of the
// values alone. It is appended to dst[:0], the caller's buffer.
//
// Each max-find after the first is seeded: within one probe no value
// changes and the server has read every sweep's senders, so the best of
// those reports among the nodes not yet found is a lower bound the next
// max-find starts from — its Init's (value, id), and its best. When that
// seed is the maximum, the max-find costs its Init, the seed's
// acknowledgement and one silent sweep. The cost is then about one FindMax
// plus a few messages per further node, additive in m rather than m·log n
// (experiment E14). The reports seen are kept, the m best of them, in
// dst's capacity past m: a buffer of capacity 2m is enough, a smaller one
// is replaced by one that is, so a monitor that keeps the returned slice
// opens its epochs without allocating.
func TopM(c cluster.Cluster, m int, dst []wire.Report) []wire.Report {
	m = min(m, c.N())
	if cap(dst) < 2*m {
		dst = make([]wire.Report, 0, 2*m)
	}
	out, seen := dst[:0], topSeen(dst[m:m:2*m])
	for j := 0; j < m; j++ {
		seed, seeded := seen.seed(out)
		rep, ok := findMax(c, j == 0, seed, seeded, &seen)
		if !ok {
			break
		}
		out = append(out, rep)
		c.MaxFindExclude(rep.ID)
	}
	return out
}

// topSeen holds the best distinct reports a probe's sweeps have read, in
// decreasing max-find order, up to its capacity. Fault-free, the nodes a
// probe has found are the best nodes of all and were all seen, so they
// lead the list, and the seed of the next max-find is the entry after them.
type topSeen []wire.Report

// add offers every sender to the list.
func (t *topSeen) add(senders []wire.Report) {
	l := *t
	for _, s := range senders {
		i := len(l)
		for i > 0 && above(s, l[i-1]) {
			i--
		}
		if i > 0 && l[i-1] == s || i == cap(l) {
			continue // seen already, or not among the best
		}
		if len(l) < cap(l) {
			l = l[:len(l)+1]
		}
		copy(l[i+1:], l[i:])
		l[i] = s
	}
	*t = l
}

// seed returns the best entry whose node is not in found.
func (t topSeen) seed(found []wire.Report) (wire.Report, bool) {
next:
	for _, r := range t {
		for _, f := range found {
			if f.ID == r.ID {
				continue next
			}
		}
		return r, true
	}
	return wire.Report{}, false
}

// openProbe is the probe an epoch opens with, TopM(c, k+1, dst), for an
// opener that reads the k-th and (k+1)-st values. Fault-free, with k < n,
// it always returns k+1 reports; under faults a dropped report or
// broadcast can hide nodes from every max-find, and then it panics with
// the short count instead of leaving the opener to index past the end. A
// fault-armed facade reports the panic as the step's or the resync's error.
func openProbe(c cluster.Cluster, k int, dst []wire.Report) []wire.Report {
	reps := TopM(c, k+1, dst)
	if len(reps) <= k {
		panic(fmt.Sprintf("protocol: probe returned %d of %d reports", len(reps), k+1))
	}
	return reps
}
