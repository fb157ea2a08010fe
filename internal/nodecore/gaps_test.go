package nodecore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"slices"
	"testing"

	"topkmon/internal/rngx"
)

// TestGapsGolden pins the threshold tables for n = 37 and n = 1024: a
// digest of every entry, so a platform or compiler that rounds one product
// differently fails here before it changes a coin, and each entry against
// q^(2^j) and q^(2^j)/(1+q^(2^j)) computed in 256-bit arithmetic, so the
// pinned tables are the law they claim to be. Repeated squaring loses about
// 2^j ulps of q^(2^j); a relative 2⁻⁴⁰ (one unit of the threshold besides)
// covers that for j ≤ 10 with room to spare.
func TestGapsGolden(t *testing.T) {
	for _, c := range []struct {
		n      int
		digest uint64
	}{
		{37, 0x5c7113b7fde5cc6d},
		{1024, 0x9deec31e3b42f039},
	} {
		g := NewGaps(c.n)
		h := fnv.New64a()
		for _, tab := range [][]uint64{g.over, g.digit} {
			for _, v := range tab {
				h.Write(binary.LittleEndian.AppendUint64(nil, v))
			}
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("n=%d: table digest %#x, pinned %#x", c.n, got, c.digest)
		}
		gamma, w := ExistenceRounds(c.n), ExistenceRounds(c.n)+1
		if g.gamma != gamma || len(g.over) != gamma*w || len(g.digit) != gamma*w {
			t.Fatalf("n=%d: γ %d with tables of %d and %d, want γ %d and %d entries each",
				c.n, g.gamma, len(g.over), len(g.digit), gamma, gamma*w)
		}
		const prec = 256
		for r := 0; r < gamma; r++ {
			q := new(big.Float).SetPrec(prec).Quo(
				new(big.Float).SetPrec(prec).SetInt64(int64(c.n-1<<r)),
				new(big.Float).SetPrec(prec).SetInt64(int64(c.n)))
			for j := 0; j < w; j++ {
				one := new(big.Float).SetPrec(prec).SetInt64(1)
				d := new(big.Float).SetPrec(prec).Quo(q, one.Add(one, q))
				checkThreshold(t, fmt.Sprintf("n=%d r=%d over[%d]", c.n, r, j), g.over[r*w+j], q)
				checkThreshold(t, fmt.Sprintf("n=%d r=%d digit[%d]", c.n, r, j), g.digit[r*w+j], d)
				q = new(big.Float).SetPrec(prec).Mul(q, q)
			}
		}
	}
	// p = 1/2 exactly (n = 1024, r = 9): q^(2^j) = 2^-(2^j) is exact in
	// float64 down to j = 10, and so are the thresholds of the gap tail.
	g := NewGaps(1024)
	for j, want := range []uint64{1 << 52, 1 << 51, 1 << 49, 1 << 45, 1 << 37, 1 << 21, 1, 1, 1, 1, 1} {
		if got := g.over[9*11+j]; got != want {
			t.Errorf("n=1024 r=9 over[%d] = %d, want %d", j, got, want)
		}
	}
}

// checkThreshold holds a table entry to rngx.Threshold of the exact
// probability p, up to the squaring error TestGapsGolden allows. An entry
// whose probability underflowed float64 must be the never-true threshold.
func checkThreshold(t *testing.T, name string, got uint64, p *big.Float) {
	t.Helper()
	ref, _ := new(big.Float).SetMantExp(p, 53).Float64() // p·2⁵³
	if got == math.MaxUint64 {
		if f, _ := p.Float64(); f != 0 {
			t.Errorf("%s: never-true threshold for p = %g", name, f)
		}
		return
	}
	if d := math.Abs(float64(got) - ref); d > 1+ref*0x1p-40 {
		t.Errorf("%s = %d, exact p·2⁵³ = %.3f (off by %.3g)", name, got, ref, d)
	}
}

// lawSeeds is the checked-in seed set TestSweepSendersBinomial splits its
// trials over.
var lawSeeds = []uint64{0x5eed01, 0x5eed02, 0x5eed03, 0x5eed04}

// lawZ is the bound on every standardised statistic of the law test: a
// miss by chance is below 10⁻⁶ per check, and a wrong threshold table
// misses by far more.
const lawZ = 5

// TestSweepSendersBinomial holds the sampler to the law of the per-matcher
// coins it replaces, for n ∈ {37, 1024} and M ∈ {1, 2, 3, 10, 100, 1000}
// matchers (M ≤ n: a sweep has no more matchers than nodes). In every
// probabilistic round r the number of senders is Binomial(M, p_r) (a
// chi-square goodness of fit) and every rank sends with probability p_r (a
// chi-square over the ranks' send counts), and whole sweeps send as many
// reports and run as many rounds on average as the old loop, kept here as
// the oracle: each matcher draws one coin of probability p_r per round from
// its own stream.
func TestSweepSendersBinomial(t *testing.T) {
	for _, n := range []int{37, 1024} {
		gaps := NewGaps(n)
		gamma := ExistenceRounds(n)
		for _, m := range []int{1, 2, 3, 10, 100, 1000} {
			if m > n {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/M=%d", n, m), func(t *testing.T) {
				for r := 0; r < gamma; r++ {
					p := ExistenceProb(r, n)
					trials := max(1000, int(math.Ceil(100/p)))
					counts := make([]int, m+1)
					perRank := make([]int, m)
					var ranks []int32
					for i := range trials {
						rng := seedStream(i, n, m, r)
						ranks = gaps.Ranks(ranks[:0], rng, r, m)
						for k, rank := range ranks {
							if rank < 0 || int(rank) >= m || (k > 0 && rank <= ranks[k-1]) {
								t.Fatalf("round %d: ranks %v not ascending below %d", r, ranks, m)
							}
							perRank[rank]++
						}
						counts[len(ranks)]++
					}
					if z := binomialFit(counts, trials, m, p); z > lawZ {
						t.Errorf("round %d (p = %g): sender counts off Binomial(%d, p), z = %.2f", r, p, m, z)
					}
					if m > 1 {
						if z := marginalFit(perRank, trials, p); z > lawZ {
							t.Errorf("round %d (p = %g): per-rank send rates off p, z = %.2f", r, p, z)
						}
					} else if z := math.Abs(float64(perRank[0])-float64(trials)*p) / math.Sqrt(float64(trials)*p*(1-p)); z > lawZ {
						t.Errorf("round %d (p = %g): the one rank sends %d of %d times, z = %.2f", r, p, perRank[0], trials, z)
					}
				}

				const sweeps = 20000
				var newS, newR, oldS, oldR moments
				var ranks []int32
				for i := range sweeps {
					rng := seedStream(i, n, m, -1)
					rounds := 1
					ranks = gaps.Ranks(ranks[:0], rng, 0, m)
					for r := 1; len(ranks) == 0; r++ {
						rounds++
						ranks = gaps.Ranks(ranks, rng, r, m)
					}
					newS.add(float64(len(ranks)))
					newR.add(float64(rounds))
					senders, rounds := coinSweep(seedStream(i, n, m, -2), n, m)
					oldS.add(float64(senders))
					oldR.add(float64(rounds))
				}
				if z := newS.z(oldS); math.Abs(z) > lawZ {
					t.Errorf("mean senders per sweep %.4f, the per-node coins send %.4f (z = %.2f)", newS.mean(), oldS.mean(), z)
				}
				if z := newR.z(oldR); math.Abs(z) > lawZ {
					t.Errorf("mean rounds per sweep %.4f, the per-node coins run %.4f (z = %.2f)", newR.mean(), oldR.mean(), z)
				}
			})
		}
	}
}

// seedStream is the stream of trial i of a law-test cell: the trials cycle
// through lawSeeds, and each gets its own child stream of its seed.
func seedStream(i, n, m, r int) *rngx.Source {
	id := uint64(i)<<32 | uint64(n)<<16 | uint64(m)<<4 | uint64(r+2)
	return rngx.New(lawSeeds[i%len(lawSeeds)]).Child(id)
}

// coinSweep is the sweep loop the sampler replaced, the oracle of the law
// test: in each round every one of the m matchers draws one coin of
// probability p_r from its own stream (child i of root), and the first
// round with a sender ends the sweep. It returns the senders and the rounds
// run.
func coinSweep(root *rngx.Source, n, m int) (senders, rounds int) {
	coins := make([]rngx.Source, m)
	for i := range coins {
		coins[i].Reseed(root.ChildSeed(uint64(i)))
	}
	for r := 0; senders == 0; r++ {
		rounds++
		th := rngx.Threshold(ExistenceProb(r, n))
		for i := range coins {
			if coins[i].Below(th) {
				senders++
			}
		}
	}
	return senders, rounds
}

// binomialFit returns the Wilson–Hilferty z of the chi-square statistic of
// counts (trials by number of senders) against Binomial(m, p), over bins of
// consecutive sender counts merged until each expects at least 5 trials.
func binomialFit(counts []int, trials, m int, p float64) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	var exp []float64
	var obs []int
	full := true // the last bin expects 5 trials: the next count opens one
	for k := 0; k <= m; k++ {
		pk := math.Exp(lg(m) - lg(k) - lg(m-k) + float64(k)*math.Log(p) + float64(m-k)*math.Log1p(-p))
		if full {
			exp, obs = append(exp, 0), append(obs, 0)
		}
		exp[len(exp)-1] += pk * float64(trials)
		obs[len(obs)-1] += counts[k]
		full = exp[len(exp)-1] >= 5
	}
	if l := len(exp); l > 1 && exp[l-1] < 5 { // a short upper tail joins its neighbour
		exp[l-2] += exp[l-1]
		obs[l-2] += obs[l-1]
		exp, obs = exp[:l-1], obs[:l-1]
	}
	chi := 0.0
	for i, e := range exp {
		chi += sq(float64(obs[i])-e) / e
	}
	return wilsonHilferty(chi, max(len(exp)-1, 1))
}

// marginalFit returns the Wilson–Hilferty z of the chi-square statistic of
// the per-rank send counts against trials·p each.
func marginalFit(perRank []int, trials int, p float64) float64 {
	e, v := float64(trials)*p, float64(trials)*p*(1-p)
	chi := 0.0
	for _, c := range perRank {
		chi += sq(float64(c)-e) / v
	}
	return wilsonHilferty(chi, len(perRank))
}

// wilsonHilferty maps a chi-square statistic with k degrees of freedom to
// an approximately standard normal z.
func wilsonHilferty(chi float64, k int) float64 {
	f := float64(k)
	return (math.Cbrt(chi/f) - (1 - 2/(9*f))) / math.Sqrt(2/(9*f))
}

func sq(x float64) float64 { return x * x }

// moments accumulates a sample's count, sum and sum of squares.
type moments struct{ n, s, s2 float64 }

func (a *moments) add(x float64) { a.n++; a.s += x; a.s2 += x * x }
func (a moments) mean() float64  { return a.s / a.n }
func (a moments) varOfMean() float64 {
	return (a.s2/a.n - sq(a.mean())) / a.n
}

// z is the two-sample z of the difference of the means of a and b.
func (a moments) z(b moments) float64 {
	v := a.varOfMean() + b.varOfMean()
	if v == 0 {
		if a.mean() == b.mean() {
			return 0
		}
		return math.Inf(1)
	}
	return (a.mean() - b.mean()) / math.Sqrt(v)
}

// FuzzSweepGaps: for any n, matcher count m ≤ n, round r and stream, the
// drawn ranks ascend strictly and stay below m, the final round returns
// every rank without a draw, a replay from the same stream draws the same
// ranks, and a draw into a buffer with room allocates nothing.
func FuzzSweepGaps(f *testing.F) {
	f.Add(uint32(1024), uint32(9), uint8(0), uint64(1))
	f.Add(uint32(37), uint32(37), uint8(5), uint64(2))
	f.Add(uint32(1), uint32(1), uint8(0), uint64(3))
	f.Add(uint32(65535), uint32(65536), uint8(15), uint64(4))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint32, rRaw uint8, seed uint64) {
		n := 1 + int(nRaw%(1<<16))
		m := int(mRaw % uint32(n+1))
		gamma := ExistenceRounds(n)
		r := int(rRaw) % (gamma + 2)
		g := NewGaps(n)
		rng := rngx.New(seed)
		before := *rng
		dst := make([]int32, 0, m)
		ranks := g.Ranks(dst, rng, r, m)
		for k, rank := range ranks {
			if rank < 0 || int(rank) >= m || (k > 0 && rank <= ranks[k-1]) {
				t.Fatalf("n=%d m=%d r=%d: ranks %v not strictly ascending below m", n, m, r, ranks)
			}
		}
		if r >= gamma {
			if len(ranks) != m || *rng != before {
				t.Fatalf("n=%d m=%d final round %d: %d ranks, stream moved %v; want all %d and no draw",
					n, m, r, len(ranks), *rng != before, m)
			}
		}
		after := *rng
		*rng = before
		if again := g.Ranks(make([]int32, 0, m), rng, r, m); !slices.Equal(again, ranks) || *rng != after {
			t.Fatalf("n=%d m=%d r=%d: a replay from the same stream draws %v, first %v", n, m, r, again, ranks)
		}
		if a := testing.AllocsPerRun(3, func() { g.Ranks(dst[:0], rng, r, m) }); a != 0 {
			t.Fatalf("n=%d m=%d r=%d: Ranks into a buffer of cap m allocates %v times", n, m, r, a)
		}
	})
}
