package chaintest

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/nodecore"
	"topkmon/internal/wire"
)

// ProbeChecker wraps a fault-free engine and checks every epoch-opening
// probe against the repeated-FindMax loop the seeded protocol.TopM
// replaced. The loop's j-th report is the first node of the max-find
// order (largest value, then largest id) among those it has not excluded
// yet, so the checker holds each MaxFindExclude to exactly that node,
// since the probe's resetting Init. It tracks the values from the
// installs it passes on, and it changes nothing the engine does.
type ProbeChecker struct {
	cluster.Engine
	vals     []int64
	excluded []bool
	// Checked counts the excludes checked; Err is the first mismatch.
	Checked int
	Err     error
}

// NewProbeChecker wraps e, whose nodes hold their construction values.
func NewProbeChecker(e cluster.Engine) *ProbeChecker {
	return &ProbeChecker{Engine: e, vals: make([]int64, e.N()), excluded: make([]bool, e.N())}
}

// Advance implements cluster.Inspector.
func (p *ProbeChecker) Advance(values []int64) {
	p.Engine.Advance(values)
	copy(p.vals, values)
}

// AdvanceDirty implements cluster.Inspector.
func (p *ProbeChecker) AdvanceDirty(values []int64, dirty []int) {
	p.Engine.AdvanceDirty(values, dirty)
	for _, id := range dirty {
		p.vals[id] = values[id]
	}
}

// Reset implements cluster.Cluster.
func (p *ProbeChecker) Reset(seed uint64) {
	p.Engine.Reset(seed)
	clear(p.vals)
	clear(p.excluded)
}

// MaxFindInit implements cluster.Cluster.
func (p *ProbeChecker) MaxFindInit(floor int64, reset bool) {
	if reset {
		clear(p.excluded)
	}
	p.Engine.MaxFindInit(floor, reset)
}

// MaxFindExclude implements cluster.Cluster.
func (p *ProbeChecker) MaxFindExclude(id int) {
	want := -1
	for i, v := range p.vals {
		if !p.excluded[i] && (want < 0 || wire.Above(v, int64(i), p.vals[want], int64(want))) {
			want = i
		}
	}
	if id != want && p.Err == nil {
		p.Err = fmt.Errorf("probe excludes node %d (value %d) after %d checks; the FindMax loop finds node %d (value %d)",
			id, p.vals[id], p.Checked, want, p.vals[want])
	}
	p.Checked++
	p.excluded[id] = true
	p.Engine.MaxFindExclude(id)
}

// Node reads node i of the wrapped engine, as the recorder does.
func (p *ProbeChecker) Node(i int) nodecore.Node { return nodeOf(p.Engine, i) }
