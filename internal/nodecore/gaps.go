package nodecore

import (
	"math/bits"

	"topkmon/internal/rngx"
)

// Gaps draws the senders of an EXISTENCE round over n nodes without a coin
// per matcher.
//
// In round r < γ each of a sweep's M matchers sends independently with
// probability p_r = 2^r/n (ExistenceProb). Ranked 0..M−1 in id order, the
// ranks that send are a Bernoulli(p_r) process, so the gap before the first
// sender and the gap after each sender are independent Geometric(p_r)
// variables, P(gap ≥ g) = q^g with q = 1 − p_r. Ranks draws the round gap
// by gap: a round costs its senders plus one gap, not M coins, and the
// joint law of the sender set is the per-matcher coins' exactly.
//
// A gap is drawn by its binary digits, which are independent: digit j is 1
// with probability q^(2^j)/(1+q^(2^j)). Only a gap below the R ranks still
// left matters, so it is drawn truncated: with L = bits.Len(R−1), 2^L ≥ R,
// one draw decides the event gap ≥ 2^L (probability q^(2^L); below it the
// L low digits keep their laws) and L draws give the digits. A gap costs at
// most bits.Len(R−1)+1 Below draws, never more than the R coins it
// replaces plus one. The final round, where every matcher sends, draws
// nothing.
//
// Every probability is an rngx.Threshold fixed at construction, so no
// float is computed per round. The tables are built from integers with
// each float product rounded by an explicit conversion, which the Go spec
// lets no compiler fuse into a multiply-add: equal n gives equal tables,
// and equal streams give equal ranks, on every platform (the golden test
// pins n = 37 and n = 1024).
type Gaps struct {
	gamma int
	// For round r < γ and 0 ≤ j ≤ γ, entry r·(γ+1)+j of over is the
	// threshold of gap ≥ 2^j, q_r^(2^j), and of digit the threshold of
	// digit j, q_r^(2^j)/(1+q_r^(2^j)).
	over, digit []uint64
}

// NewGaps returns the threshold tables of the γ = ExistenceRounds(n)
// probabilistic rounds over n nodes.
func NewGaps(n int) Gaps {
	gamma := ExistenceRounds(n)
	w := gamma + 1
	g := Gaps{gamma: gamma, over: make([]uint64, gamma*w), digit: make([]uint64, gamma*w)}
	for r := 0; r < gamma; r++ {
		q := float64(n-1<<r) / float64(n) // 1 − p_r, rounded once
		for j := 0; j < w; j++ {
			g.over[r*w+j] = rngx.Threshold(q)
			g.digit[r*w+j] = rngx.Threshold(q / (1 + q))
			q = float64(q * q) // q_r^(2^(j+1)); the conversion forbids a fused 1+q·q
		}
	}
	return g
}

// Ranks appends to dst the ranks, ascending and each below m, of the
// matchers that send in round r of a sweep with m matchers, drawing from
// rng; m is at most the n of the tables. In the final round r ≥ γ it
// appends every rank and draws nothing. It allocates only if dst is too
// short.
func (g *Gaps) Ranks(dst []int32, rng *rngx.Source, r, m int) []int32 {
	if r >= g.gamma {
		for i := range m {
			dst = append(dst, int32(i))
		}
		return dst
	}
	w := g.gamma + 1
	over, digit := g.over[r*w:][:w], g.digit[r*w:][:w]
	for next := 0; next < m; {
		left := m - next
		l := bits.Len(uint(left - 1))
		if rng.Below(over[l]) {
			break // the gap reaches 2^l ≥ left: no rank left sends
		}
		gap := 0
		for j, t := range digit[:l] {
			if rng.Below(t) {
				gap |= 1 << j
			}
		}
		if gap >= left {
			break
		}
		dst = append(dst, int32(next+gap))
		next += gap + 1
	}
	return dst
}
