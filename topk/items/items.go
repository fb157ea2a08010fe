// Package items layers heavy-hitter ITEM monitoring on top of the node
// monitor: m logical items are observed as (node, item, count) events on n
// distributed nodes, each node summarises its local substream in a
// streaming sketch (internal/sketch), and the per-item sketch estimates
// feed a topk.Monitor whose "nodes" are the items — so the full machinery
// of the paper's ε-Top-k protocols (filters, violation handling, cost
// accounting, Check) tracks the top-k ITEMS end to end.
//
// # Aggregation choice: per-item, not per-(node,item)
//
// The monitored scalar for item j is the SUM over all n nodes of node i's
// sketch estimate of j, and the inner monitor runs over m item-streams.
// The alternative — one monitored stream per (node, item) pair — was
// rejected: its output is pair ids that still need a second aggregation
// to answer "which items are hot", it cannot see items that are globally
// heavy but locally light everywhere (each pair stream stays small), and
// its monitor state scales with n·m instead of m. With per-item
// aggregation the inner monitor's output IS the answer (item ids), and
// its size is independent of the node count.
//
// A node's summary is c Space-Saving counters read as a lower bound: each
// counter minus the node's minimum counter (sketch.SpaceSaving, Misra-Gries
// over c−1 counters), which never exceeds the node's true count of the
// item and falls short of it by at most that minimum. Each committed step,
// every node enumerates the counters whose lower bound is positive
// (sketch.SpaceSaving.Tracked: slot order, no sort); an item some node
// lists is a candidate, and every candidate's aggregate — the sum over ALL
// nodes of the lower bound, 0 on a node that does not list it — is pushed,
// in ascending item id, as one batch.
//
// So every pushed value is at most the item's true count when it is
// pushed, and since counts never fall, at most its true count at every
// later step too: an item no node lists keeps its previous pushed value,
// stale but never above the truth (TestPushedNeverExceedsTruth checks it
// after every step). An item that nobody lists has a true count of at
// most the sum of the nodes' minimum counters, the same slack a listed
// item's aggregate has, so the filters see every item under-stated by at
// most that sum and never over-stated: a fringe item cannot be pushed past
// a heavier one on the strength of another node's minimum. The recall
// harness (internal/stream/items + the E-table experiment) measures the
// end-to-end effect against exact ground truth.
//
// # The step accumulates; it does not look up
//
// Sketch updates are node-local and free in the model, so a step should
// cost what the tracked counters cost to read. A node's term of an item's
// sum is the lower bound its enumeration just listed, or 0, so Step adds
// each listed count into a dense per-item accumulator and reads the
// candidates out of a bitset over the universe in ascending id: no
// Estimate call and no sort.
package items

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"topkmon/internal/sketch"
	"topkmon/topk"
)

// SketchKind selects the per-node summary algorithm.
type SketchKind int

// SpaceSaving (the default and only kind) keeps Capacity Space-Saving
// counters per node and pushes each counter minus the node's minimum.
const SpaceSaving SketchKind = 0

// String implements fmt.Stringer.
func (k SketchKind) String() string {
	if k == SpaceSaving {
		return "space-saving"
	}
	return fmt.Sprintf("SketchKind(%d)", int(k))
}

// Config parameterises New. Zero values get working defaults where noted.
type Config struct {
	// Nodes is the number of distributed nodes n (required, >= 1).
	Nodes int
	// Items is the item-universe size m (required, >= 1); the inner
	// monitor runs over m streams, so K <= Items.
	Items int
	// K is the size of the monitored top set (required, 1 <= K <= Items;
	// K = Items only under an inner algorithm that takes k = n, Naive).
	K int
	// Epsilon is the inner monitor's approximation error; the default
	// algorithm (Approx) needs it above 0, and ε = 0 needs an exact one
	// selected through Monitor.
	Epsilon topk.Epsilon
	// Sketch selects the per-node summary (default SpaceSaving).
	Sketch SketchKind
	// Capacity c is the Space-Saving counters per node, each read against
	// the node's minimum counter, so at most c−1 items are tracked per node
	// (required >= 2; default 64).
	Capacity int
	// Seed is the inner monitor's seed, so equal seeds replay bit for bit.
	// Default 1.
	Seed uint64
	// Monitor is appended to the inner topk.New options, after the ones
	// this package sets (nodes, seed) — e.g. topk.WithMonitor,
	// topk.WithEngine.
	Monitor []topk.Option
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Capacity == 0 {
		cfg.Capacity = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Monitor tracks the approximate top-k items of a distributed item
// stream. Observe stages events; Step commits everything observed since
// the last Step as ONE time step of the inner monitor. Methods are safe
// for concurrent use: one mutex serialises every call that touches the
// sketches, and the reads of the inner monitor (TopItems, Cost, Check,
// Steps) take the inner monitor's own. Each node's sketch sees its events
// in call order, so concurrent Observes on disjoint nodes end in the state
// of any sequential order.
type Monitor struct {
	mu sync.Mutex

	cfg   Config
	inner *topk.Monitor
	per   []*sketch.SpaceSaving // one summary per node

	// Step scratch, sized once in New. acc[j] is the sum of the lower
	// bounds listed for item j and marked is the candidate bitset over the
	// universe; Step clears each entry as it consumes it, so both are
	// all-zero between Steps and Reset, Close and an early return leave no
	// residue. The scan is Items/64 words a step (16k words at a universe
	// of 1M), below what the inner batch costs, so there is no sparse form.
	tracked []sketch.Counter // one node's enumeration
	acc     []int64
	marked  []uint64
	batch   []topk.Update

	closed bool
}

// New returns an item monitor for the k heaviest of cfg.Items items
// observed across cfg.Nodes nodes.
func New(c Config) (*Monitor, error) {
	cfg := c.withDefaults()
	if cfg.Nodes < 1 {
		return nil, errors.New("items: Nodes must be >= 1")
	}
	if cfg.Items < 1 {
		return nil, errors.New("items: Items must be >= 1")
	}
	if cfg.K < 1 || cfg.K > cfg.Items {
		return nil, fmt.Errorf("items: K = %d outside [1, Items = %d]", cfg.K, cfg.Items)
	}
	if cfg.Sketch != SpaceSaving {
		return nil, fmt.Errorf("items: unknown Sketch %v", cfg.Sketch)
	}
	if cfg.Capacity < 2 {
		return nil, fmt.Errorf("items: Capacity = %d, want >= 2 (0 selects the default): one counter's lower bound is always 0", cfg.Capacity)
	}
	per := make([]*sketch.SpaceSaving, cfg.Nodes)
	for i := range per {
		per[i] = sketch.NewSpaceSaving(cfg.Capacity)
	}
	opts := append([]topk.Option{topk.WithNodes(cfg.Items), topk.WithSeed(cfg.Seed)}, cfg.Monitor...)
	inner, err := topk.New(cfg.K, cfg.Epsilon, opts...)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:     cfg,
		inner:   inner,
		per:     per,
		tracked: make([]sketch.Counter, 0, cfg.Capacity),
		acc:     make([]int64, cfg.Items),
		marked:  make([]uint64, (cfg.Items+63)/64),
		batch:   make([]topk.Update, 0, cfg.Items),
	}, nil
}

// Observe stages count arrivals of item at node into the current step.
// Counts <= 0 are ignored (the sketch contract). Observe allocates
// nothing.
func (m *Monitor) Observe(node, item int, count int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return topk.ErrClosed
	}
	if node < 0 || node >= len(m.per) {
		return fmt.Errorf("items: node %d outside [0, %d)", node, len(m.per))
	}
	if item < 0 || item >= m.cfg.Items {
		return fmt.Errorf("items: item %d outside [0, %d)", item, m.cfg.Items)
	}
	m.per[node].Observe(uint64(item), count)
	return nil
}

// Step commits everything observed since the last Step as one time step:
// every item some node's sketch tracks is a candidate, each candidate's
// value is the sum over all nodes of the node's lower bound (accumulated,
// see the package doc), and the candidates go to the inner monitor as one
// batch in ascending item id. Steps with no candidate still advance time
// (the inner monitor's heartbeat semantics). Step allocates nothing.
func (m *Monitor) Step() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return topk.ErrClosed
	}
	// Every Counter.Item below reached its sketch through Observe's
	// item < Items check, which is what makes it an index.
	for _, s := range m.per {
		m.tracked = s.Tracked(m.tracked)
		for _, c := range m.tracked {
			m.marked[c.Item>>6] |= 1 << (c.Item & 63)
			m.acc[c.Item] += c.Count
		}
	}
	// The word scan yields ascending item ids, one entry per item however
	// many nodes track it: the inner monitor's dirty list, hence its
	// replay, is independent of the per-node iteration interleave.
	m.batch = m.batch[:0]
	for w, word := range m.marked {
		if word == 0 {
			continue
		}
		m.marked[w] = 0
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			m.batch = append(m.batch, topk.Update{Node: j, Value: min(m.acc[j], topk.MaxValue)})
			m.acc[j] = 0
		}
	}
	return m.inner.UpdateBatch(m.batch)
}

// TopItems appends the current top-k ITEM ids to dst[:0] and returns it
// (the inner monitor's output — item ids are the inner node ids). Before
// the first Step it returns dst[:0].
func (m *Monitor) TopItems(dst []int) []int { return m.inner.TopK(dst) }

// Estimate returns the monitor's current lower bound on one item's count
// — the sum of the per-node lower bounds, what Step would push for it now
// — and the sum of the nodes' minimum counters, by which the true count
// exceeds it at most: est <= count <= est + bound. It reads the sketches
// live (not the last pushed value).
func (m *Monitor) Estimate(item int) (est, bound int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if item < 0 || item >= m.cfg.Items {
		return 0, 0
	}
	for _, s := range m.per {
		e, b := s.Estimate(uint64(item))
		est += e
		bound += b
	}
	return est, bound
}

// Cost returns the inner monitor's communication bill. Sketch updates are
// node-local (free in the paper's model); what is billed is the filter
// protocol over the m aggregated item streams.
func (m *Monitor) Cost() topk.Cost { return m.inner.Cost() }

// Check verifies the inner monitor's ε-Top-k property over the pushed
// aggregates (the no-silent-wrong-answers referee). Sketch-vs-truth error
// is measured separately by the recall harness.
func (m *Monitor) Check() error { return m.inner.Check() }

// Steps returns the number of committed steps.
func (m *Monitor) Steps() int64 { return m.inner.Steps() }

// N returns the number of distributed nodes n.
func (m *Monitor) N() int { return len(m.per) }

// Items returns the item-universe size m.
func (m *Monitor) Items() int { return m.cfg.Items }

// K returns the size of the monitored top set.
func (m *Monitor) K() int { return m.cfg.K }

// Reset rewinds the monitor — sketches and inner monitor; Step's scratch
// is all-zero between steps — to the state a fresh New with the given seed
// would produce, keeping every buffer. A reset monitor replays a fresh
// monitor's run bit for bit.
func (m *Monitor) Reset(seed uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return topk.ErrClosed
	}
	if err := m.inner.Reset(seed); err != nil {
		return err
	}
	m.cfg.Seed = seed
	for _, s := range m.per {
		s.Reset()
	}
	return nil
}

// Close releases the monitor (idempotent; reads stay valid, mutations
// return topk.ErrClosed).
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.inner.Close()
}
