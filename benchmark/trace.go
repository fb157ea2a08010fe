//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/protocol"
	"topkmon/internal/wire"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spUpdateBatch spanName = iota // topk.Monitor.UpdateBatch, from the driver
	spAdvance                     // cluster.Engine.Advance
	spEndStep                     // cluster.Engine.EndStep
	spHandleStep                  // protocol.Monitor.Start / HandleStep
	spDetectViolation
	spSweep
	spCollect
	spProbe
	spSetFilter // SetFilter + SetTagFilter
	spBroadcast // BroadcastRule + MaxFindInit/Raise/Exclude
	spItemsObserve
	spItemsStep
	spDecodeBatch // serve.DecodeBatch
	spCommitBatch // serve.Tenant.CommitBatch
	spHandler     // serve.Server.ServeHTTP into a recorder
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"topk.update_batch", "cluster.advance", "cluster.end_step", "protocol.handle_step",
	"cluster.detect_violation", "cluster.sweep", "cluster.collect", "cluster.probe",
	"cluster.set_filter", "cluster.broadcast", "items.observe", "items.step",
	"serve.decode_batch", "serve.commit_batch", "serve.handler",
}

// span is one timed interval: what was called, when, the span that caused
// it (-1 for a root) and the op (step or request) it belongs to.
type span struct {
	name       spanName
	parent     int32
	op         int32
	start, end time.Duration // since the tracer's epoch
}

// tracer records spans in memory from one goroutine; the benchmark writes
// them out when the run ends. A nil *tracer is the untraced pass.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of spans not yet ended
	op    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 8)}
}

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name spanName) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: time.Since(t.epoch)})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// layerTimes is the per-name reduction of a span list.
type layerTimes struct {
	total [numSpanNames]time.Duration // span durations
	self  [numSpanNames]time.Duration // durations minus the children's
	calls [numSpanNames]int
}

// selfTimes reduces spans to per-name totals, self times and call counts. A
// span's self time is its duration minus its children's durations. Clock
// granularity can leave a tiny negative remainder, which is clamped to
// zero; one beyond 5 % of the parent means spans overlap or are mis-nested,
// and the traced pass fails loudly rather than report it.
func selfTimes(spans []span) (layerTimes, error) {
	var lt layerTimes
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		dur := s.end - s.start
		self := dur - children[i]
		if self < 0 {
			if -self*20 > dur {
				return lt, fmt.Errorf("trace: span %d (%s, op %d) lasts %v but its children %v",
					i, spanNames[s.name], s.op, dur, children[i])
			}
			self = 0
		}
		lt.total[s.name] += dur
		lt.self[s.name] += self
		lt.calls[s.name]++
	}
	return lt, nil
}

// coverage is the share of a timed loop's wall time that its spans account
// for: the sum of all self times (which telescopes to the root spans) over
// wall. The rest is the driver's own loop.
func (lt layerTimes) coverage(wall time.Duration) float64 {
	var covered time.Duration
	for _, d := range lt.self {
		covered += d
	}
	return covered.Seconds() / wall.Seconds()
}

// durations returns the duration of every span of one name, in order.
func durations(spans []span, name spanName) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeSpans writes the span list as a JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}",
			spanNames[s.name], s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.op)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine times every protocol-facing call into a cluster.Engine. It
// is injected with topk.WithClusterEngine, so the program is not edited;
// the Inspector side door (Values, Filters, Tags) passes through the
// embedded engine untimed.
type tracedEngine struct {
	cluster.Engine
	tr *tracer
}

func (e *tracedEngine) Advance(values []int64) {
	s := e.tr.begin(spAdvance)
	e.Engine.Advance(values)
	e.tr.end(s)
}

func (e *tracedEngine) EndStep() {
	s := e.tr.begin(spEndStep)
	e.Engine.EndStep()
	e.tr.end(s)
}

func (e *tracedEngine) DetectViolation() (wire.Report, bool) {
	s := e.tr.begin(spDetectViolation)
	rep, ok := e.Engine.DetectViolation()
	e.tr.end(s)
	return rep, ok
}

func (e *tracedEngine) Sweep(p wire.Pred) []wire.Report {
	s := e.tr.begin(spSweep)
	reps := e.Engine.Sweep(p)
	e.tr.end(s)
	return reps
}

func (e *tracedEngine) Collect(p wire.Pred) []wire.Report {
	s := e.tr.begin(spCollect)
	reps := e.Engine.Collect(p)
	e.tr.end(s)
	return reps
}

func (e *tracedEngine) Probe(id int) wire.Report {
	s := e.tr.begin(spProbe)
	rep := e.Engine.Probe(id)
	e.tr.end(s)
	return rep
}

func (e *tracedEngine) SetFilter(id int, iv filter.Interval) {
	s := e.tr.begin(spSetFilter)
	e.Engine.SetFilter(id, iv)
	e.tr.end(s)
}

func (e *tracedEngine) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	s := e.tr.begin(spSetFilter)
	e.Engine.SetTagFilter(id, t, iv)
	e.tr.end(s)
}

func (e *tracedEngine) BroadcastRule(rule *wire.FilterRule) {
	s := e.tr.begin(spBroadcast)
	e.Engine.BroadcastRule(rule)
	e.tr.end(s)
}

func (e *tracedEngine) MaxFindInit(floor int64, reset bool) {
	s := e.tr.begin(spBroadcast)
	e.Engine.MaxFindInit(floor, reset)
	e.tr.end(s)
}

func (e *tracedEngine) MaxFindRaise(holder int, best int64) {
	s := e.tr.begin(spBroadcast)
	e.Engine.MaxFindRaise(holder, best)
	e.tr.end(s)
}

func (e *tracedEngine) MaxFindExclude(id int) {
	s := e.tr.begin(spBroadcast)
	e.Engine.MaxFindExclude(id)
	e.tr.end(s)
}

// tracedMonitor times the protocol's per-step entry points; injected with
// topk.WithMonitorFunc.
type tracedMonitor struct {
	protocol.Monitor
	tr *tracer
}

func (m *tracedMonitor) Start() {
	s := m.tr.begin(spHandleStep)
	m.Monitor.Start()
	m.tr.end(s)
}

func (m *tracedMonitor) HandleStep() {
	s := m.tr.begin(spHandleStep)
	m.Monitor.HandleStep()
	m.tr.end(s)
}
