package chaintest

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"hash/maphash"
	"reflect"
	"slices"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/faults"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/stream"
	"topkmon/internal/wire"
	"topkmon/topk"
)

// Health is a monitor's health as the served routes spell it.
type Health struct {
	State    string
	StaleFor int64
	Err      string
}

// Obs is what the recorder keeps of one committed step: everything a
// facade-level link sees, and where a link sees the engine, the whole
// counter set and in Nodes a digest of every node's value, filter and tag
// (0 where the nodes are out of sight). The digest is a hash/maphash of
// this process's seed: it compares within one test binary, not across.
type Obs struct {
	Out      []int
	Cost     topk.Cost
	Epochs   int64
	Algo     string
	Check    string // "ok" or the referee's error
	Health   Health
	Counters metrics.Counters
	Nodes    uint64
}

// Same fails t at the first step where got differs from want; the counter
// set and node state are compared only where both sides could see them.
func Same(t testing.TB, want, got []Obs) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		w, g := want[i], got[i]
		w.Out, g.Out = nil, nil
		if w.Nodes == 0 || g.Nodes == 0 {
			w.Counters, g.Counters, w.Nodes, g.Nodes = metrics.Counters{}, metrics.Counters{}, 0, 0
		}
		if !slices.Equal(want[i].Out, got[i].Out) || !reflect.DeepEqual(w, g) {
			t.Fatalf("step %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%d steps recorded, want %d", len(got), len(want))
	}
}

// SilentWrong returns the first step whose output fails Check while
// Health reads fresh — a wrong answer nobody is told about — or -1.
func SilentWrong(obs []Obs) int {
	for i, o := range obs {
		if o.Check != "ok" && o.Health.State == "fresh" {
			return i
		}
	}
	return -1
}

// checkString spells a referee verdict as /cost does.
func checkString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// Run is the chain's one driver: it commits each batch of trace as one
// time step of the system under test and records what step observes.
func Run(trace []Batch, step func(Batch) Obs) []Obs {
	obs := make([]Obs, len(trace))
	for t, b := range trace {
		obs[t] = step(b)
	}
	return obs
}

// Ref is a row's reference run on a fresh lockstep engine.
type Ref struct {
	Trace []Batch
	Obs   []Obs
	// Pin is the pinned fold (see Row.Pin), 0 on other rows.
	Pin uint64
	// Dense and Sub count the epochs DENSEPROTOCOL ran and the calls it
	// made to SUBPROTOCOL, on the rows that run it.
	Dense, Sub int64
}

// Reference runs r directly on a fresh lockstep engine, generating the
// trace as it goes: an adaptive generator sees this run's filters and
// output, and every link replays the trace recorded here. On a pinned row
// it computes the pinned fold too.
func (r Row) Reference() Ref {
	d := NewDirect(r, lockstep.New(r.N, r.Seed))
	d.delta = false
	if r.Pin != 0 {
		d.pin = fnv.New64a()
		d.restart()
	}
	gen := r.gen()
	adaptive, _ := gen.(stream.Adaptive)
	var ref Ref
	var filters []filter.Interval
	var prev Batch
	for t := 0; t < r.Steps; t++ {
		if adaptive != nil {
			filters = d.eng.FiltersInto(filters)
			adaptive.ObserveFilters(filters, d.out)
		}
		prev = r.batch(t, gen.Next(t), prev)
		prev.truth = oracle.Compute(prev.Vals, r.K, r.Eps)
		ref.Trace = append(ref.Trace, prev)
		ref.Obs = append(ref.Obs, d.Step(prev))
	}
	if d.pin != nil {
		ref.Pin = d.pin.Sum64()
	}
	switch m := d.mon.(type) {
	case *protocol.Approx:
		ref.Dense, ref.Sub = m.DenseEpochs(), m.SubCalls()
	case *protocol.Dense:
		ref.Dense, ref.Sub = m.Epochs(), m.SubCalls
	}
	return ref
}

// FacadeReference is the reference a facade-level link compares with: the
// direct run for a fault-free row, and for a fault-armed one the facade on
// lockstep, whose recovery supervisor is part of what those links test.
func (r Row) FacadeReference() Ref {
	ref := r.Reference()
	if r.Faults != nil {
		ref.Obs = RunFacade(r, ref.Trace)
	}
	return ref
}

// Direct is the pre-facade step loop on an engine: Advance, Start on the
// first step and HandleStep after, EndStep. A fault-armed row's engine is
// wrapped in the fault injector, and a protocol panic there rebuilds the
// monitor, which reopens an epoch on the next step.
type Direct struct {
	eng   cluster.Engine
	r     Row
	mon   protocol.Monitor
	start bool
	steps int64
	out   []int
	pin   hash.Hash64
	buf   []byte
	delta bool // install sparse batches with AdvanceDirty
}

// NewDirect builds the direct loop of r on eng, which must be fresh. It
// installs a sparse batch with AdvanceDirty, where the reference run uses
// Advance.
func NewDirect(r Row, eng cluster.Engine) *Direct {
	if r.Faults != nil {
		eng = faults.Wrap(eng, r.Faults.Injector(), r.Seed)
	}
	d := &Direct{eng: eng, r: r, delta: true}
	d.restart()
	return d
}

// Monitor is the algorithm d runs.
func (d *Direct) Monitor() protocol.Monitor { return d.mon }

// Reset rewinds the engine to seed and rebuilds the monitor on it.
func (d *Direct) Reset(seed uint64) {
	d.eng.Reset(seed)
	d.steps = 0
	d.restart()
}

func (d *Direct) restart() {
	var c cluster.Cluster = d.eng
	if d.pin != nil {
		c = callRecorder{d.eng, d.pin}
	}
	d.mon, d.start = d.r.Algo.NewMonitor(c, d.r.K, d.r.Eps), true
}

// Step commits b as one time step and observes the result.
func (d *Direct) Step(b Batch) Obs {
	if d.delta && b.Dirty != nil {
		d.eng.AdvanceDirty(b.Vals, b.Dirty)
	} else {
		d.eng.Advance(b.Vals)
	}
	check := d.protocolStep()
	d.out = append([]int(nil), d.mon.Output()...)
	if d.pin != nil {
		d.fold()
	}
	d.eng.EndStep()
	d.steps++
	if check == "" {
		check = checkString(b.truth.ValidateEps(d.out))
	}
	c := d.eng.Counters()
	return Obs{Out: d.out, Cost: topk.CostOf(c, d.steps), Epochs: d.mon.Epochs(), Algo: d.mon.Name(),
		Check: check, Health: Health{State: "fresh"}, Counters: *c, Nodes: d.nodeDigest()}
}

// protocolStep runs Start or HandleStep. On a fault-armed row it turns a
// panic into a rebuilt monitor and reports it in place of the verdict.
func (d *Direct) protocolStep() (check string) {
	if d.r.Faults != nil {
		defer func() {
			if p := recover(); p != nil {
				d.restart()
				check = fmt.Sprint("panic: ", p)
			}
		}()
	}
	if d.start {
		d.start = false
		d.mon.Start()
	} else {
		d.mon.HandleStep()
	}
	return ""
}

// fold adds one step to the pinned fold: the output ids, the counters by
// channel and by kind, the round high-water mark, the epoch count, every
// node's tag, and the DENSE/SUB statistics of Approx and Dense. With the
// server-to-node calls callRecorder folds in call order, this is what the
// pinned digests were recorded from.
func (d *Direct) fold() {
	b := ints(nil, d.steps, int64(len(d.out)))
	for _, id := range d.out {
		b = ints(b, int64(id))
	}
	c := d.eng.Counters()
	for _, ch := range []metrics.Channel{metrics.NodeToServer, metrics.ServerToNode, metrics.Broadcast} {
		b = ints(b, c.ByChannel(ch))
	}
	for k := wire.Kind(0); int(k) < wire.NumKinds; k++ {
		b = ints(b, c.ByKind(k.String()))
	}
	b = ints(b, c.MaxRoundsPerStep(), d.mon.Epochs())
	for i := 0; i < d.eng.N(); i++ {
		b = ints(b, int64(nodeOf(d.eng, i).Tag))
	}
	switch m := d.mon.(type) {
	case *protocol.Approx:
		b = ints(b, m.DenseEpochs(), m.SubCalls())
	case *protocol.Dense:
		b = ints(b, m.SubCalls, m.Halvings)
	}
	d.pin.Write(b)
}

// nodeDigest folds every node's value, filter and tag.
func (d *Direct) nodeDigest() uint64 {
	d.buf = d.buf[:0]
	for i := 0; i < d.eng.N(); i++ {
		nd := nodeOf(d.eng, i)
		d.buf = ints(d.buf, nd.Value, nd.Filter.Lo, nd.Filter.Hi, int64(nd.Tag))
	}
	return maphash.Bytes(nodeSeed, d.buf)
}

var nodeSeed = maphash.MakeSeed()

// ints appends vs to b, eight little-endian bytes each.
func ints(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// callRecorder folds each server-to-node call a monitor makes, with its
// arguments, into the pinned fold before passing it on.
type callRecorder struct {
	cluster.Cluster
	h hash.Hash64
}

func (r callRecorder) BroadcastRule(rule *wire.FilterRule) {
	fmt.Fprintf(r.h, "B%v", *rule)
	r.Cluster.BroadcastRule(rule)
}

func (r callRecorder) SetFilter(id int, iv filter.Interval) {
	fmt.Fprintf(r.h, "F%d%v", id, iv)
	r.Cluster.SetFilter(id, iv)
}

func (r callRecorder) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	fmt.Fprintf(r.h, "T%d%v%v", id, t, iv)
	r.Cluster.SetTagFilter(id, t, iv)
}

func (r callRecorder) Probe(id int) wire.Report {
	fmt.Fprintf(r.h, "P%d", id)
	return r.Cluster.Probe(id)
}

func (r callRecorder) Collect(p wire.Pred) []wire.Report {
	fmt.Fprintf(r.h, "C%v", p)
	return r.Cluster.Collect(p)
}

// nodeOf reads node i of an engine, through the fault injector if any.
func nodeOf(e cluster.Engine, i int) nodecore.Node {
	if w, ok := e.(*faults.Cluster); ok {
		e = w.Inner()
	}
	return e.(interface{ Node(int) nodecore.Node }).Node(i)
}

// Pusher pushes each batch through topk.Monitor.UpdateBatch.
type Pusher struct {
	M     *topk.Monitor
	batch []topk.Update
}

// NewPusher builds r's monitor through the public options, then opts.
func NewPusher(r Row, opts ...topk.Option) *Pusher {
	opts = append([]topk.Option{topk.WithNodes(r.N), topk.WithSeed(r.Seed),
		topk.WithMonitor(r.Algo), topk.WithFaults(r.Faults)}, opts...)
	m, err := topk.New(r.K, topk.WrapEps(r.Eps), opts...)
	if err != nil {
		panic(err)
	}
	return &Pusher{M: m}
}

// RunFacade steps a fresh facade monitor for r, built with opts, through
// trace.
func RunFacade(r Row, trace []Batch, opts ...topk.Option) []Obs {
	p := NewPusher(r, opts...)
	defer p.M.Close()
	return Run(trace, p.Step)
}

// Step commits b with one UpdateBatch and observes the result.
func (f *Pusher) Step(b Batch) Obs {
	f.batch = b.Updates(f.batch)
	if err := f.M.UpdateBatch(f.batch); err != nil {
		panic(err)
	}
	m := f.M
	h := m.Health()
	o := Obs{Out: m.TopK(nil), Cost: m.Cost(), Epochs: m.Epochs(), Algo: m.AlgorithmName(),
		Check: checkString(m.Check()), Health: Health{State: h.State.String(), StaleFor: h.StaleFor}}
	if h.Err != nil {
		o.Health.Err = h.Err.Error()
	}
	return o
}
