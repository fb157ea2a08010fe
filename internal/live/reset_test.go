package live

import (
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/lockstep"
	"topkmon/internal/wire"
)

// TestResetIsFullRewind pins the cheap observables directly: counters
// emptied, values zeroed, filters all-admitting, tags cleared.
func TestResetIsFullRewind(t *testing.T) {
	const n = 8
	engines := map[string]func() (cluster.Engine, func()){
		"lockstep": func() (cluster.Engine, func()) { return lockstep.New(n, 5), func() {} },
		"live/m=1": func() (cluster.Engine, func()) {
			c := New(n, 5, WithShards(1))
			return c, c.Close
		},
		"live/m=2": func() (cluster.Engine, func()) {
			c := New(n, 5, WithShards(2))
			return c, c.Close
		},
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			eng, done := mk()
			defer done()
			vals := []int64{8, 7, 6, 5, 4, 3, 2, 1}
			eng.Advance(vals)
			eng.Probe(0)
			eng.Sweep(wire.Violating())
			eng.EndStep()
			eng.Reset(99)
			if got := eng.Counters().Total(); got != 0 {
				t.Errorf("messages after reset = %d, want 0", got)
			}
			if got := eng.Counters().Steps(); got != 0 {
				t.Errorf("steps after reset = %d, want 0", got)
			}
			for i, v := range valuesOf(eng) {
				if v != 0 {
					t.Errorf("node %d value = %d after reset, want 0", i, v)
				}
			}
		})
	}
}
