package exp

import (
	"fmt"
	"math"
	"slices"

	"topkmon/internal/metrics"
)

// Finding is one claim of an experiment checked against the tables it
// built: the quantity the claim bounds, its value in this run, and the
// range the claim accepts. The ranges were fitted once, on the quick and
// the full tables of seeds 1–10, and widened so that every one of those
// runs passes; each Verdict says what it checks and which claim it is.
type Finding struct {
	Claim  string
	Got    float64
	Lo, Hi float64
}

// OK reports whether the measured value lies in the accepted range.
func (f Finding) OK() bool { return f.Got >= f.Lo && f.Got <= f.Hi }

// String renders the finding as one line: the verdict, the claim, the
// value and the range.
func (f Finding) String() string {
	verdict := "ok  "
	if !f.OK() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %s: %.3f in [%g, %g]", verdict, f.Claim, f.Got, f.Lo, f.Hi)
}

// within is the finding that got lies in [lo, hi].
func within(claim string, got, lo, hi float64) Finding {
	return Finding{Claim: claim, Got: got, Lo: lo, Hi: hi}
}

// slope returns the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return sxy / sxx
}

// log2s returns log₂ of every entry.
func log2s(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Log2(x)
	}
	return out
}

// verdictE2 is Lemma 2.6 on the E2 table: FindMax's mean messages are
// linear in log₂ n, with a slope and a per-row ratio msgs/log₂ n inside
// fixed bands. On seeds 1–10 the slope read 1.37–2.63 quick (two rows of
// 40 trials) and 1.92–2.09 full, the ratio 2.03–2.99 and 2.17–2.77.
func verdictE2(tables []*metrics.Table) []Finding {
	tb := tables[0]
	lg, mean := tb.Column("log2(n)"), tb.Column("mean msgs")
	out := []Finding{within("E2 FindMax msgs per log2(n), least-squares slope", slope(lg, mean), 1, 3.5)}
	ratio := tb.Column("msgs/log2(n)")
	out = append(out, within("E2 FindMax msgs/log2(n), smallest row", slices.Min(ratio), 1.8, 3.4),
		within("E2 FindMax msgs/log2(n), largest row", slices.Max(ratio), 1.8, 3.4))
	return out
}

// verdictE3 is Corollary 3.3 on the E3 table: the exact monitor's
// messages per epoch grow linearly in log Δ, so their slope against
// log₂ Δ is positive and bounded (seeds 1–10: 1.26–1.60 quick, 1.45–1.53
// full).
func verdictE3(tables []*metrics.Table) []Finding {
	tb := tables[0]
	return []Finding{within("E3 exact-mid msgs/epoch per log2(Δ), least-squares slope",
		slope(tb.Column("log2(Δ)"), tb.Column("msgs/epoch")), 0.5, 3)}
}

// verdictE4 is Theorem 4.5 on the E4 tables: TOP-K-PROTOCOL's messages per
// epoch are flat in log Δ where the exact monitor's grow, and they grow at
// most linearly in log 1/ε. On seeds 1–10 TOP-K-PROTOCOL's slope in
// log₂ Δ read 0 and the exact monitor's 1.26–1.60, and the slope in
// log₂ 1/ε 1.20–2.47 quick and 1.39–1.64 full.
func verdictE4(tables []*metrics.Table) []Finding {
	a, b := tables[0], tables[1]
	lgD := a.Column("log2(Δ)")
	return []Finding{
		within("E4a topk-protocol msgs/epoch per log2(Δ), least-squares slope", slope(lgD, a.Column("topk-protocol")), -0.25, 0.25),
		within("E4a exact-mid msgs/epoch per log2(Δ), least-squares slope", slope(lgD, a.Column("exact-mid")), 0.5, 3),
		within("E4b topk-protocol msgs/epoch per log2(1/ε), least-squares slope",
			slope(log2s(b.Column("1/eps")), b.Column("msgs/epoch")), -2, 4),
	}
}

// verdictE9 is the Section 4 design on the E9 table: with phases A1 and A2
// the messages per epoch are flat in log Δ, and without them they grow
// (seeds 1–10: full slope 0, the ablated one 1.25–1.57 above it).
func verdictE9(tables []*metrics.Table) []Finding {
	tb := tables[0]
	lgD := tb.Column("log2(Δ)")
	full, ablated := slope(lgD, tb.Column("full (A1+A2+A3)")), slope(lgD, tb.Column("A3-only (ablated)"))
	return []Finding{
		within("E9 full msgs/epoch per log2(Δ), least-squares slope", full, -0.25, 0.25),
		within("E9 ablated minus full slope per log2(Δ)", ablated-full, 0.5, 3),
	}
}

// verdictE14 is the opening's cost on the E14 tables: O(k + log n)
// seeded, (k+1)·O(log n) as the loop. The seeded probe's slope in k is at
// most a constant at every n, and its slope in log₂ n is about one
// FindMax's at every k; each FindMax of the loop costs a multiple of
// log₂ n. On seeds 1–10 the seeded slope in k read 5.58–5.68 quick and
// 5.65–5.84 full (one of those messages is each seed's acknowledgement of
// its Init), its largest slope in log₂ n 2.01–3.45, and the loop's per
// FindMax and log₂ n 1.65–2.17.
func verdictE14(tables []*metrics.Table) []Finding {
	b, c := tables[1], tables[2]
	return []Finding{
		within("E14b seeded msgs per extra k, largest over n", slices.Max(b.Column("seeded msgs/k")), 0, 7),
		within("E14c seeded msgs per log2(n), largest over k", slices.Max(c.Column("seeded msgs/log2(n)")), 0, 4.5),
		within("E14c loop msgs per log2(n) per FindMax, smallest over k", slices.Min(c.Column("loop per FindMax")), 1.2, math.Inf(1)),
	}
}

// verdictE1 is Lemma 3.1 on the E1 table: EXISTENCE costs O(1) messages
// in expectation whatever n and the number b of ones, and the lemma's
// constant is about 6, so every mean is at most 6. On seeds 1–10 the
// largest mean read 2.91–3.16 quick and 2.95–3.08 full.
func verdictE1(tables []*metrics.Table) []Finding {
	tb := tables[0]
	worst := 0.0
	for _, b := range []string{"b=1", "b=sqrt(n)", "b=n/2", "b=n"} {
		worst = max(worst, slices.Max(tb.Column(b)))
	}
	return []Finding{within("E1 EXISTENCE mean msgs, largest (n, b)", worst, 0, 6)}
}

// verdictE12 is the value index's selectivity on the E12 table: a Collect
// over a value interval visits exactly the σ nodes it matches, and a tag
// predicate, which has no value bounds, visits all n. Every row of seeds
// 1–10, quick and full, read visits/σ = 1 and n fallback visits.
func verdictE12(tables []*metrics.Table) []Finding {
	tb := tables[0]
	ns, fallback, off := tb.Column("n"), tb.Column("fallback (tag)"), 0.0
	for i, n := range ns {
		off = max(off, math.Abs(fallback[i]-n))
	}
	return []Finding{
		within("E12 Collect visits/σ, largest row", slices.Max(tb.Column("max visits/σ")), 1, 1),
		within("E12 tag-predicate Collect visits minus n, largest |·| over rows", off, 0, 0),
	}
}

// verdictE13 is the E13 table (capacities ascending): with each counter
// read as its lower bound, recall@8 at the smallest capacity stays above a
// band, and at the largest it reaches 0.9, the layer's operating point. On
// seeds 1–10 recall@8 at capacity 16 read 0.797–0.867 quick and
// 0.812–0.883 full (read as over-estimates, the same counters gave
// 0.594–0.750 and 0.484–0.594, below the band), and at the largest
// capacity 0.984–1 quick and 0.992–1 full.
func verdictE13(tables []*metrics.Table) []Finding {
	recall := tables[0].Column("recall@8")
	return []Finding{
		within("E13 recall@8, smallest capacity", recall[0], 0.76, 1),
		within("E13 recall@8, largest capacity", recall[len(recall)-1], 0.9, 1),
	}
}
