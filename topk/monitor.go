package topk

import (
	"errors"
	"fmt"
	"sync"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/faults"
	"topkmon/internal/live"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
)

// ErrClosed is returned by mutating methods after Close.
var ErrClosed = errors.New("topk: monitor is closed")

// Update is one node's pushed observation.
type Update struct {
	Node  int
	Value int64
}

// Event reports that a committed step changed the top-k set or, on a
// fault-armed monitor (WithFaults), the monitor's health. The TopK slice
// is shared by all subscribers receiving the event — treat it as read-only.
type Event struct {
	// Step is the 1-based index of the committed step that changed the set
	// or the health.
	Step int64
	// TopK is the current output, in the monitor's id order.
	TopK []int
	// Health is the monitor's health as of this step. Degradation events —
	// deliveries whose only trigger is a health-state change — carry the
	// unchanged TopK; without WithFaults, Health is always the zero value
	// (Fresh) and events fire only on set changes, as before.
	Health Health
}

// subBuffer is each subscription channel's capacity. Deliveries never
// block the push path: when a subscriber falls this far behind, further
// events are dropped for it until it drains.
const subBuffer = 64

// Monitor is the embeddable push-based ε-Top-k monitor: an engine hosting
// the n nodes, one of the paper's monitoring algorithms on top, and the
// batching that turns pushed updates into the model's time steps. Methods
// are safe for concurrent use: one mutex serialises every call but
// Epsilon, N and K, which read fields fixed at New. A push joins whatever
// batch is staged when it takes the mutex, so the steps that concurrent
// pushers form depend on the interleave; a run that must replay pushes
// from one goroutine. Subscription channels may be drained from any
// goroutine.
type Monitor struct {
	mu sync.Mutex

	eng        cluster.Engine
	ownsEngine bool
	mkMon      func(cluster.Cluster) protocol.Monitor
	mon        protocol.Monitor

	k    int
	e    eps.Eps
	seed uint64

	// vals holds every node's last pushed value: the facade's referee copy
	// for Check (the engine's nodes own the values the protocol sees), and
	// the observation vector each committed step hands the engine. dirty
	// lists, once each and in push order, the nodes staged in the current
	// (uncommitted) batch — the only entries of vals a commit installs;
	// stagedAt[i] == batch marks node i as one of them.
	vals     []int64
	dirty    []int
	stagedAt []uint64
	batch    uint64
	steps    int64

	// prev is the last committed output, for top-k-set-change detection.
	prev []int
	subs []chan Event

	// Fault-layer state (zero and inert without WithFaults): the injector
	// wrapping eng, the recovery supervisor's health machine, and the
	// resync backoff clock. prevHealth is the last state delivered to
	// subscribers, for degradation-event detection.
	faulty         *faults.Cluster
	health         HealthState
	prevHealth     HealthState
	staleFor       int64
	healthErr      error
	epochBase      int64
	resyncBackoff  int64
	resyncCooldown int64

	sc     oracle.Scratch
	closed bool
}

// New returns a Monitor for the k largest of n node streams with error ε.
// n comes from WithNodes (or an injected engine); the remaining options
// have working defaults: Lockstep engine, Approx algorithm, seed 1. Every
// algorithm but Naive needs k < n, and Approx, Dense and HalfEps need
// ε > 0; New returns an error for those, and for an invalid fault plan,
// before it builds an engine.
func New(k int, e Epsilon, opts ...Option) (*Monitor, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.nodes
	if cfg.rawEngine != nil {
		if n != 0 && n != cfg.rawEngine.N() {
			return nil, fmt.Errorf("topk: WithNodes(%d) contradicts injected engine with %d nodes", n, cfg.rawEngine.N())
		}
		n = cfg.rawEngine.N()
	}
	if n < 1 {
		return nil, errors.New("topk: node count required (WithNodes)")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("topk: k = %d outside [1, n = %d]", k, n)
	}
	if !cfg.algo.valid() {
		return nil, fmt.Errorf("topk: unknown algorithm %d (WithMonitor)", int(cfg.algo))
	}
	if cfg.engine != Lockstep && cfg.engine != Live {
		return nil, fmt.Errorf("topk: unknown engine %d (WithEngine)", int(cfg.engine))
	}
	if cfg.monitorFn == nil {
		if err := cfg.algo.check(k, n, e.e); err != nil {
			return nil, err
		}
	}
	fp := cfg.faults.Injector()
	if err := fp.Validate(n); err != nil {
		return nil, err
	}

	eng := cfg.rawEngine
	owns := false
	if eng == nil {
		owns = true
		switch cfg.engine {
		case Live:
			eng = live.New(n, cfg.seed, live.WithShards(cfg.shards))
		default:
			eng = lockstep.New(n, cfg.seed)
		}
	}

	var faulty *faults.Cluster
	if fp != nil {
		faulty = faults.Wrap(eng, fp, cfg.seed)
		eng = faulty
	}

	mkMon := cfg.monitorFn
	if mkMon == nil {
		a := cfg.algo
		mkMon = func(c cluster.Cluster) protocol.Monitor { return a.NewMonitor(c, k, e.e) }
	}
	m := &Monitor{
		eng:           eng,
		ownsEngine:    owns,
		faulty:        faulty,
		resyncBackoff: 1,
		mkMon:         mkMon,
		k:             k,
		e:             e.e,
		seed:          cfg.seed,
		vals:          make([]int64, n),
		dirty:         make([]int, 0, n),
		stagedAt:      make([]uint64, n),
		batch:         1,
		prev:          make([]int, 0, k),
	}
	m.mon = m.mkMon(eng)
	return m, nil
}

// Update stages one push into the current batch. A second push for the same
// node first commits the pending batch as one time step (a node observes
// one value per step), so a round-robin pusher forms steps naturally; use
// Flush to close a batch explicitly or UpdateBatch for bulk ingest.
func (m *Monitor) Update(node int, value int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.checkPush(node, value); err != nil {
		return err
	}
	if m.stagedAt[node] == m.batch {
		m.commitLocked()
	}
	m.stageLocked(node, value)
	return nil
}

// UpdateBatch merges the batch into any staged pushes (within one batch the
// last push per node wins) and commits everything as ONE time step. An
// empty batch is a heartbeat tick: time advances, nothing changed, and a
// quiet monitor spends no messages.
func (m *Monitor) UpdateBatch(batch []Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, u := range batch {
		if err := m.checkPush(u.Node, u.Value); err != nil {
			return err
		}
	}
	for _, u := range batch {
		m.stageLocked(u.Node, u.Value)
	}
	m.commitLocked()
	return nil
}

// ValidateBatch reports whether UpdateBatch would accept every update in
// the batch — the same node and value range checks, with no state
// mutation. Callers that must make a batch durable before committing it
// (write-ahead journaling, as in the HTTP frontend's recovery log)
// validate first so the journal never records a batch the monitor would
// reject on replay.
func (m *Monitor) ValidateBatch(batch []Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, u := range batch {
		if err := m.checkPush(u.Node, u.Value); err != nil {
			return err
		}
	}
	return nil
}

// Flush commits the staged pushes as one time step. It always closes a
// step, even with nothing staged — the heartbeat tick of a push source
// that is idle but alive.
func (m *Monitor) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.commitLocked()
	return nil
}

// checkPush validates a push without mutating state.
func (m *Monitor) checkPush(node int, value int64) error {
	if node < 0 || node >= len(m.vals) {
		return fmt.Errorf("topk: node %d outside [0, %d)", node, len(m.vals))
	}
	if value < 0 || value > eps.MaxValue {
		return fmt.Errorf("topk: value %d for node %d outside [0, %d]", value, node, eps.MaxValue)
	}
	return nil
}

// stageLocked records one validated push in the current batch; the last
// push per node wins and the node enters the dirty list once.
func (m *Monitor) stageLocked(node int, value int64) {
	if m.stagedAt[node] != m.batch {
		m.stagedAt[node] = m.batch
		m.dirty = append(m.dirty, node)
	}
	m.vals[node] = value
}

// commitLocked closes the current batch as one engine time step: install
// the staged observations, run the algorithm to quiescence, close the round
// accounting, and notify subscribers on a top-k-set change. This is the
// Advance → Start/HandleStep → EndStep sequence the simulation harness
// performs, in its delta form — only the dirty nodes are installed, every
// other node already holds its entry of vals — which is what makes pushed
// runs byte-identical to engine-driven ones at a cost of the batch, not n.
// A fault-armed monitor (WithFaults) additionally runs the recovery
// supervisor between the protocol step and the round-accounting close, so
// resync traffic bills into the step that needed it.
func (m *Monitor) commitLocked() {
	m.eng.AdvanceDirty(m.vals, m.dirty)
	m.dirty = m.dirty[:0]
	if m.faulty == nil {
		if m.steps == 0 {
			m.mon.Start()
		} else {
			m.mon.HandleStep()
		}
	} else {
		m.superviseLocked(m.guardedStepLocked())
	}
	m.eng.EndStep()
	m.steps++
	m.batch++
	m.notifyLocked()
}

// notifyLocked compares the committed output (and, under faults, the
// health state) to the previously delivered ones and, on a change,
// delivers one Event to every subscriber (non-blocking; slow subscribers
// drop).
func (m *Monitor) notifyLocked() {
	out := m.mon.Output()
	setChanged := !equalInts(m.prev, out)
	healthChanged := m.health != m.prevHealth
	if !setChanged && !healthChanged {
		return
	}
	if setChanged {
		m.prev = append(m.prev[:0], out...)
	}
	m.prevHealth = m.health
	if len(m.subs) == 0 {
		return
	}
	ev := Event{
		Step:   m.steps,
		TopK:   append([]int(nil), out...),
		Health: Health{State: m.health, StaleFor: m.staleFor, Err: m.healthErr},
	}
	for _, ch := range m.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TopK appends the current output — the node ids forming a valid ε-Top-k
// set as of the last committed step — to dst[:0] and returns it, reusing
// dst's capacity (zero-alloc once dst can hold k ids). Before the first
// committed step it returns dst[:0].
func (m *Monitor) TopK(dst []int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = dst[:0]
	if m.steps == 0 {
		return dst
	}
	return append(dst, m.mon.Output()...)
}

// Cost is the communication bill and engine-side work accounting of a run.
// All message counts follow the paper's unit-cost model. The JSON keys are
// the ones topkd's /cost route serves.
type Cost struct {
	// Messages is the total across all channels.
	Messages int64 `json:"messages"`
	// NodeToServer / Unicasts / Broadcasts split Messages by channel.
	NodeToServer int64 `json:"nodeToServer"`
	Unicasts     int64 `json:"unicasts"`
	Broadcasts   int64 `json:"broadcasts"`
	// MaxRoundsPerStep is the largest number of protocol rounds any single
	// step consumed (the model allows polylog rounds between steps).
	MaxRoundsPerStep int64 `json:"maxRoundsPerStep"`
	// MaxMessageBits is the largest accounted message size seen.
	MaxMessageBits int `json:"maxMessageBits"`
	// Steps is the number of committed time steps.
	Steps int64 `json:"steps"`
	// IndexFallbacks counts predicate-routed engine primitives that fell
	// back to a full node scan (engine-side work, not message cost). Only
	// tag predicates and domain-covering intervals full-scan; violation
	// sweeps — once the dominant source — are routed through the engines'
	// violator set, so a settled monitor's quiet steps hold this
	// counter flat (a regression test pins that on both engines).
	IndexFallbacks int64 `json:"indexFallbacks"`
	// Fault-layer accounting, all zero without WithFaults: messages the
	// injector lost for good / delivered twice, redelivery attempts by the
	// reliability sublayer, epoch resyncs run by the recovery supervisor,
	// and committed steps whose output ended unvalidated (served degraded).
	DroppedMsgs int64 `json:"droppedMsgs"`
	DupMsgs     int64 `json:"dupMsgs"`
	Retries     int64 `json:"retries"`
	Resyncs     int64 `json:"resyncs"`
	StaleSteps  int64 `json:"staleSteps"`
}

// Cost returns the communication spent since construction or the last
// Reset. It allocates nothing.
func (m *Monitor) Cost() Cost {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CostOf(m.eng.Counters(), m.steps)
}

// CostOf is the bill Cost reads off an engine's counters after steps
// committed steps. Harness scaffolding like WithClusterEngine (the
// counters live under internal/, so code outside this module cannot call
// it): internal/chaintest bills its direct runs with it.
func CostOf(c *metrics.Counters, steps int64) Cost {
	return Cost{
		Messages:         c.Total(),
		NodeToServer:     c.ByChannel(metrics.NodeToServer),
		Unicasts:         c.ByChannel(metrics.ServerToNode),
		Broadcasts:       c.ByChannel(metrics.Broadcast),
		MaxRoundsPerStep: c.MaxRoundsPerStep(),
		MaxMessageBits:   c.MaxBits(),
		Steps:            steps,
		IndexFallbacks:   c.IndexFallbacks(),
		DroppedMsgs:      c.DroppedMsgs(),
		DupMsgs:          c.DupMsgs(),
		Retries:          c.Retries(),
		Resyncs:          c.Resyncs(),
		StaleSteps:       c.StaleSteps(),
	}
}

// Epsilon returns the configured approximation error ε.
func (m *Monitor) Epsilon() Epsilon { return Epsilon{e: m.e} }

// N returns the number of monitored node streams.
func (m *Monitor) N() int { return len(m.vals) }

// K returns the size of the monitored top set.
func (m *Monitor) K() int { return m.k }

// Steps returns the number of committed time steps.
func (m *Monitor) Steps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.steps
}

// Epochs returns how many epochs (phases between guaranteed OPT messages)
// the algorithm has started — the unit competitive analyses count in.
// Epochs opened before a fault-recovery resync stay counted.
func (m *Monitor) Epochs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochBase + m.mon.Epochs()
}

// AlgorithmName returns the running algorithm's report name (e.g.
// "approx-controller").
func (m *Monitor) AlgorithmName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mon.Name()
}

// Check recomputes the ground truth over the monitor's mirror of all
// pushed values and verifies the current output's ε-Top-k property,
// returning a descriptive error on violation. It is the omniscient referee
// of the paper's model — pure server-side arithmetic, no messages — and
// allocates nothing in steady state. Before the first committed step it
// trivially passes.
func (m *Monitor) Check() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.steps == 0 {
		return nil
	}
	truth := oracle.ComputeInto(&m.sc, m.vals, m.k, m.e)
	return truth.ValidateEps(m.mon.Output())
}

// Subscribe returns a channel delivering one Event per committed step that
// changed the top-k set. Delivery is non-blocking: a subscriber more than
// subBuffer events behind misses the intermediate sets (the latest set is
// always available via TopK). Subscriptions survive Reset and are closed
// by Close, or individually by Unsubscribe.
func (m *Monitor) Subscribe() <-chan Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan Event, subBuffer)
	if m.closed {
		close(ch)
		return ch
	}
	m.subs = append(m.subs, ch)
	return ch
}

// Unsubscribe removes ch — a channel previously returned by Subscribe —
// from the delivery list and closes it. Long-lived monitors serving
// transient consumers (the HTTP frontend's SSE bridge, dashboards) must
// unsubscribe departed consumers or the delivery list grows without bound.
// Unsubscribing a foreign or already-removed channel is a no-op, and after
// Close every subscription is closed already, so Unsubscribe never
// double-closes.
func (m *Monitor) Unsubscribe(ch <-chan Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, c := range m.subs {
		if (<-chan Event)(c) == ch {
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			close(c)
			return
		}
	}
}

// Reset rewinds the monitor to the state a fresh New with the given seed
// would produce — engine state, counters, algorithm, value mirror, and
// step count — while keeping every buffer, goroutine, and subscription.
// Staged-but-uncommitted pushes are discarded. A reset monitor replays a
// fresh monitor's run bit for bit.
func (m *Monitor) Reset(seed uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.eng.Reset(seed)
	m.seed = seed
	m.mon = m.mkMon(m.eng)
	clear(m.vals)
	m.dirty = m.dirty[:0]
	m.batch++ // invalidates every stagedAt mark: staged pushes are dropped
	m.steps = 0
	m.prev = m.prev[:0]
	// The fault layer rewinds with the engine (the injector's RNG stream is
	// re-derived inside eng.Reset); the health machine starts over too.
	m.health = Fresh
	m.prevHealth = Fresh
	m.staleFor = 0
	m.healthErr = nil
	m.epochBase = 0
	m.resyncBackoff = 1
	m.resyncCooldown = 0
	return nil
}

// Close releases the monitor: subscription channels are closed and, when
// the Monitor constructed its own Live engine, the engine's workers are
// stopped. Staged-but-uncommitted pushes are discarded. Reads (TopK, Cost)
// remain valid; mutations return ErrClosed. Close is idempotent.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	for _, ch := range m.subs {
		close(ch)
	}
	m.subs = nil
	if m.ownsEngine {
		eng := m.eng
		if m.faulty != nil {
			eng = m.faulty.Inner()
		}
		if lc, ok := eng.(*live.Cluster); ok {
			lc.Close()
		}
	}
	return nil
}
