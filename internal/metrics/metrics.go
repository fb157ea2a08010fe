// Package metrics provides the communication accounting used throughout the
// reproduction: message counters by kind and by channel (node→server,
// server→node unicast, broadcast), per-step round tracking for the model's
// polylog-round constraint, bit-size high-water marks, and the text-table
// and CSV rendering of the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"topkmon/internal/wire"
)

// Channel classifies which primitive carried a message; each costs 1 unit.
type Channel uint8

const (
	// NodeToServer is a message from a node to the server.
	NodeToServer Channel = iota
	// ServerToNode is a unicast from the server to one node.
	ServerToNode
	// Broadcast is a server broadcast received by all nodes.
	Broadcast
	numChannels
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case NodeToServer:
		return "node→server"
	case ServerToNode:
		return "server→node"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// Counters accumulates communication cost. The zero value is ready to use.
type Counters struct {
	byChannel [numChannels]int64
	// byKind is indexed by wire.Kind: counting a message is two array
	// increments, and the kind's name is resolved only where a caller asks
	// for it (ByKind).
	byKind [wire.NumKinds]int64

	// Round accounting: the model allows polylogarithmically many rounds
	// of communication between consecutive time steps.
	roundsThisStep int64
	maxRoundsStep  int64
	steps          int64

	// maxBits tracks the largest message observed, for the size bound.
	maxBits int

	// indexFallbacks counts predicate-routed primitives (Sweep, Collect)
	// that had to take the full node scan because no index structure can
	// serve the predicate: tag predicates (HasTag — matches depend on
	// node-local tags the server does not index) and domain-covering
	// InRange intervals, where routing could prune nothing. Violation
	// sweeps do not fall back: they are resolved from the engines'
	// violator set (a vindex.Groups in nodecore.Shard), so a quiet-step run holds
	// this counter flat (asserted by the quiet-step regression tests). Nor,
	// since PR 13, do max-find sweeps at any threshold: AboveActive(-1),
	// which used to be billed here once per max-find run, is served from
	// the max-find active list like every other AboveActive and scans
	// nothing (vindex.Routable). It is engine-side work accounting, not
	// message cost: both
	// engines count identically (the decision is made from the predicate
	// alone), so cross-engine equivalence is preserved.
	indexFallbacks int64

	// Fault accounting (internal/faults and the topk facade's recovery
	// supervisor). These five counters stay zero on a fault-free run: the
	// engines themselves never touch them — the fault injector bills
	// droppedMsgs/dupMsgs/retries at the wrapped message layer, and the
	// facade bills resyncs/staleSteps from its recovery loop. Like
	// indexFallbacks they are layered accounting, not model message cost,
	// and both engines produce identical values under equal seeds and
	// fault plans (pinned by the faults conformance tests).
	droppedMsgs int64
	dupMsgs     int64
	retries     int64
	resyncs     int64
	staleSteps  int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// Reset returns the counters to the empty state. A reset counter set is
// indistinguishable from NewCounters() through the public API.
func (c *Counters) Reset() { *c = Counters{} }

// Count records one message on channel c of the given kind with the given
// accounted bit size.
func (c *Counters) Count(ch Channel, kind wire.Kind, bitSize int) {
	c.byChannel[ch]++
	c.byKind[kind]++
	if bitSize > c.maxBits {
		c.maxBits = bitSize
	}
}

// Rounds records that the current time step consumed r additional protocol
// rounds.
func (c *Counters) Rounds(r int64) { c.roundsThisStep += r }

// IndexFallback records that one predicate-routed primitive fell back to the
// full node scan because no routing structure serves its predicate.
func (c *Counters) IndexFallback() { c.indexFallbacks++ }

// IndexFallbacks returns how many predicate-routed primitives took the
// full-scan fallback since construction or the last Reset.
func (c Counters) IndexFallbacks() int64 { return c.indexFallbacks }

// DroppedMsg records that the fault layer lost one message of the given
// kind after exhausting any retries.
func (c *Counters) DroppedMsg() { c.droppedMsgs++ }

// DroppedMsgs returns how many messages the fault layer lost for good.
func (c Counters) DroppedMsgs() int64 { return c.droppedMsgs }

// DupMsg records that the fault layer delivered one message twice.
func (c *Counters) DupMsg() { c.dupMsgs++ }

// DupMsgs returns how many duplicate deliveries the fault layer injected.
func (c Counters) DupMsgs() int64 { return c.dupMsgs }

// Retry records one redelivery attempt of the reliability sublayer.
func (c *Counters) Retry() { c.retries++ }

// Retries returns how many redelivery attempts the reliability sublayer
// has made (successful or not).
func (c Counters) Retries() int64 { return c.retries }

// Resync records one epoch resync: the server re-broadcasting filters and
// re-running the sweep after detecting divergence.
func (c *Counters) Resync() { c.resyncs++ }

// Resyncs returns how many epoch resyncs the recovery supervisor ran.
func (c Counters) Resyncs() int64 { return c.resyncs }

// StaleStep records one committed step whose published output was not
// validated fresh (the monitor was degraded or still recovering).
func (c *Counters) StaleStep() { c.staleSteps++ }

// StaleSteps returns how many committed steps ended without a
// validated-fresh output.
func (c Counters) StaleSteps() int64 { return c.staleSteps }

// EndStep closes the current time step's round accounting.
func (c *Counters) EndStep() {
	if c.roundsThisStep > c.maxRoundsStep {
		c.maxRoundsStep = c.roundsThisStep
	}
	c.roundsThisStep = 0
	c.steps++
}

// Total returns the total number of messages across all channels.
func (c Counters) Total() int64 {
	var t int64
	for _, v := range c.byChannel {
		t += v
	}
	return t
}

// ByChannel returns the count on one channel.
func (c Counters) ByChannel(ch Channel) int64 { return c.byChannel[ch] }

// ByKind returns the count of one message kind, named as wire.Kind.String
// names it; an unknown name counts 0.
func (c Counters) ByKind(kind string) int64 {
	for k, v := range c.byKind {
		if wire.Kind(k).String() == kind {
			return v
		}
	}
	return 0
}

// MaxRoundsPerStep returns the largest number of protocol rounds consumed by
// any single time step.
func (c Counters) MaxRoundsPerStep() int64 {
	if c.roundsThisStep > c.maxRoundsStep {
		return c.roundsThisStep
	}
	return c.maxRoundsStep
}

// MaxBits returns the largest accounted message size seen, in bits.
func (c Counters) MaxBits() int { return c.maxBits }

// Steps returns the number of completed time steps. No program calls it;
// the tests of this package and internal/live do.
func (c Counters) Steps() int64 { return c.steps }

// Sub returns the difference c - o: channels, kinds, index fallbacks and
// the fault counters subtract, while the high-water marks (max rounds per
// step, max bits) and the step count stay c's. Counters holds only arrays
// and integers, so a plain copy (before := *eng.Counters()) is the earlier
// value to subtract.
func (c Counters) Sub(o Counters) Counters {
	for i := range c.byChannel {
		c.byChannel[i] -= o.byChannel[i]
	}
	for i := range c.byKind {
		c.byKind[i] -= o.byKind[i]
	}
	c.indexFallbacks -= o.indexFallbacks
	c.droppedMsgs -= o.droppedMsgs
	c.dupMsgs -= o.dupMsgs
	c.retries -= o.retries
	c.resyncs -= o.resyncs
	c.staleSteps -= o.staleSteps
	return c
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows. No program calls it; the tests
// of this package and internal/exp do.
func (t *Table) NumRows() int { return len(t.rows) }

// Column returns the cells of the column headed header as numbers, one
// per row, as rendered: the form an experiment's verdict fits its claim
// to. It panics when no column has that header or a cell is not a number.
func (t *Table) Column(header string) []float64 {
	col := -1
	for i, h := range t.Headers {
		if h == header {
			col = i
		}
	}
	if col < 0 {
		panic(fmt.Sprintf("metrics: table %q has no column %q", t.Title, header))
	}
	out := make([]float64, len(t.rows))
	for i, row := range t.rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			panic(fmt.Sprintf("metrics: table %q, column %q: %v", t.Title, header, err))
		}
		out[i] = v
	}
	return out
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (no quoting needed for our data).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
