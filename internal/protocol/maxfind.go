package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/wire"
)

// FindMax computes the node holding the largest value among participating
// nodes (those not excluded by previous runs) using O(log n) messages in
// expectation — the algorithm behind Lemma 2.6.
//
// It repeatedly runs an EXISTENCE sweep for "active and above the current
// best": the terminating round's senders form a roughly uniform sample of
// the remaining candidates, so raising the best to the sample's maximum
// halves the candidate set in expectation, giving O(log n) iterations of
// O(1) expected messages each. When reset is true, exclusions from earlier
// runs are cleared.
func FindMax(c cluster.Cluster, reset bool) (wire.Report, bool) {
	c.MaxFindInit(-1, reset)
	var best wire.Report
	found := false
	for {
		senders := c.Sweep(wire.AboveActive(bestValue(best, found)))
		if len(senders) == 0 {
			return best, found
		}
		top := senders[0]
		for _, s := range senders[1:] {
			if s.Value > top.Value || (s.Value == top.Value && s.ID > top.ID) {
				top = s
			}
		}
		best, found = top, true
		c.MaxFindRaise(best.ID, best.Value)
	}
}

func bestValue(best wire.Report, found bool) int64 {
	if !found {
		return -1
	}
	return best.Value
}

// TopM computes the nodes holding the m largest values using O(m log n)
// expected messages, by iterating FindMax and excluding each found node.
// The result is ordered by decreasing value and appended to dst[:0], the
// caller's buffer (nil allocates one): a monitor that probes once per epoch
// keeps the buffer and opens its epochs without allocating. Its values are
// exactly the m largest, its ids distinct, and each report carries its
// node's value; which of several tied nodes it returns is not specified. A
// raise drops every node of the raised value, so among tied nodes the one
// the sweeps sample first wins, whatever its id (TestTopMValuesExact).
func TopM(c cluster.Cluster, m int, dst []wire.Report) []wire.Report {
	if m > c.N() {
		m = c.N()
	}
	out := dst[:0]
	for j := 0; j < m; j++ {
		rep, ok := FindMax(c, j == 0)
		if !ok {
			break
		}
		out = append(out, rep)
		c.MaxFindExclude(rep.ID)
	}
	return out
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
