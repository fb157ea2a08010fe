package wire_test

import (
	"math"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/nodecore"
	"topkmon/internal/wire"
)

// FuzzPredBounds cross-checks Pred.Bounds against the node-local Match
// oracle. Bounds promises a NECESSARY interval — the contract the engines'
// value-bucket routing rests on: when ok is true, a node whose value lies
// outside [lo, hi] must never match the predicate, whatever its other
// local state (filter, tag, max-find activity). For PredInRange the bound
// is additionally exact.
func FuzzPredBounds(f *testing.F) {
	f.Add(uint8(2), int64(10), int64(20), uint8(0), int64(15), false)
	f.Add(uint8(1), int64(100), int64(0), uint8(0), int64(101), true)
	f.Add(uint8(1), int64(math.MaxInt64), int64(0), uint8(0), int64(7), true)
	f.Add(uint8(0), int64(0), int64(0), uint8(3), int64(42), false)
	f.Add(uint8(3), int64(0), int64(0), uint8(4), int64(-5), false)
	f.Fuzz(func(t *testing.T, kind uint8, x, y int64, tag uint8, v int64, active bool) {
		p := wire.Pred{
			Kind: wire.PredKind(kind % 4),
			X:    x,
			Y:    y,
			Tag:  wire.Tag(tag % uint8(wire.NumTags)),
		}
		lo, hi, ok := p.Bounds()

		nd := nodecore.New(0)
		nd.Observe(v)
		nd.SetTag(wire.Tag(tag % uint8(wire.NumTags)))
		nd.SetFilter(filter.Make(y, x)) // arbitrary, possibly empty filter
		// Max-find activity is the shard's, not the node's: an inactive
		// node matches no max-find predicate.
		matched := nd.Match(p) && (active || p.Kind != wire.PredAboveActive)

		if ok && matched && (v < lo || v > hi) {
			t.Fatalf("pred %+v: node value %d matches outside Bounds [%d, %d]", p, v, lo, hi)
		}
		if p.Kind == wire.PredInRange {
			if !ok {
				t.Fatalf("PredInRange must be value-bounded")
			}
			if want := v >= lo && v <= hi; nd.Match(p) != want {
				t.Fatalf("pred %+v: InRange bounds [%d, %d] not exact at %d", p, lo, hi, v)
			}
		}
	})
}
