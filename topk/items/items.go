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
// Each committed step, every node enumerates the counters its sketch
// tracks (sketch.Summary.Tracked: slot order, no sort); an item some node
// tracks is a candidate, and every candidate's aggregate — the sum over
// ALL nodes of Estimate(item) — is pushed, in ascending item id, as one
// batch. Items no node tracks keep their previous pushed value — safe
// because counts are monotone non-decreasing, so a stale value only
// under-states an item that, by not being tracked anywhere, is bounded
// below the per-node error bounds anyway. The recall harness
// (internal/stream/items + the E-table experiment) measures the
// end-to-end effect of both approximations — sketch error and stale
// non-candidates — against exact ground truth.
//
// # The step accumulates; it does not look up
//
// Sketch updates are node-local and free in the model, so a step should
// cost what the tracked counters cost to read. A Space-Saving or
// Misra-Gries summary answers Estimate for every item it does NOT track
// with one number u (sketch.Summary.UntrackedEstimate: the minimum counter
// once full, else 0). So node i's term of an item's sum is u_i unless the
// node tracks the item, and then it is the counter the enumeration just
// produced:
//
//	Σ_i Estimate_i(j) = Σ_i u_i + Σ_{i tracks j} (count_i(j) − u_i)
//
// Step adds count − u_i into a dense per-item accumulator during the
// enumeration and adds Σ u_i once per candidate: the same integer, with no
// Estimate call and no sort (candidates come out of a bitset over the
// universe in ascending id). Count-Min states no such number — an item
// outside its keeper still estimates to the minimum of its own row cells,
// and a kept item's keeper count is the estimate as of ITS last
// observation while Estimate reads the live table — so a Count-Min node
// contributes its keeper's items as candidates from the same enumeration
// and its term is read with Estimate per candidate. Which of the two a
// summary gets is the summary's own answer, not a setting.
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

const (
	// SpaceSaving (the default) never under-estimates and tracks a
	// per-item over-estimation error; the usual best choice for top-k.
	SpaceSaving SketchKind = iota
	// MisraGries never over-estimates; deterministic counterpart with the
	// dual one-sided guarantee. With Capacity c it is read off a
	// Space-Saving summary of c+1 counters (each minus the minimum), so it
	// tracks at most c items in the memory of c+1 Space-Saving counters.
	MisraGries
	// CountMin is the hashed sketch: never under-estimates, and its
	// bound holds per item except with probability δ = e^-depth; a keeper
	// of its highest-estimate items supplies the heavy lists.
	CountMin
)

// String implements fmt.Stringer.
func (k SketchKind) String() string {
	switch k {
	case SpaceSaving:
		return "space-saving"
	case MisraGries:
		return "misra-gries"
	case CountMin:
		return "count-min"
	default:
		return fmt.Sprintf("SketchKind(%d)", int(k))
	}
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
	// Capacity c sizes every kind of per-node summary: the counters
	// SpaceSaving keeps, the items MisraGries tracks (on c+1 Space-Saving
	// counters), and CountMin's rows and keeper, in no more bytes than c
	// Space-Saving counters (sketch.NewCountMin). Default 64.
	Capacity int
	// Seed is the root seed: it derives every per-node sketch seed and
	// the inner monitor's seed, so equal seeds replay bit for bit.
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

// nodeSeed derives node i's sketch seed from the root seed (splitmix64's
// golden-ratio stride, matching the repo's child-stream idiom).
func nodeSeed(seed uint64, i int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * (uint64(i) + 1))
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
	per   []sketch.Summary // one summary per node

	// Step scratch, sized once in New. acc[j] is Σ (count − u_i) over the
	// nodes tracking item j and marked is the candidate bitset over the
	// universe; Step clears each entry as it consumes it, so both are
	// all-zero between Steps and Reset, Close and an early return leave no
	// residue. The scan is Items/64 words a step (16k words at a universe
	// of 1M), below what the inner batch costs, so there is no sparse form.
	tracked    []sketch.Counter // one node's enumeration
	acc        []int64
	marked     []uint64
	byEstimate []sketch.Summary // this step's nodes without a single untracked estimate
	batch      []topk.Update

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
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("items: Capacity = %d, want >= 1 (0 selects the default)", cfg.Capacity)
	}
	per := make([]sketch.Summary, cfg.Nodes)
	for i := range per {
		switch cfg.Sketch {
		case SpaceSaving:
			per[i] = sketch.NewSpaceSaving(cfg.Capacity)
		case MisraGries:
			per[i] = sketch.NewMisraGries(cfg.Capacity)
		case CountMin:
			per[i] = sketch.NewCountMin(cfg.Capacity, nodeSeed(cfg.Seed, i))
		default:
			return nil, fmt.Errorf("items: unknown Sketch %v", cfg.Sketch)
		}
	}
	opts := append([]topk.Option{topk.WithNodes(cfg.Items), topk.WithSeed(cfg.Seed)}, cfg.Monitor...)
	inner, err := topk.New(cfg.K, cfg.Epsilon, opts...)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:        cfg,
		inner:      inner,
		per:        per,
		tracked:    make([]sketch.Counter, 0, cfg.Capacity),
		acc:        make([]int64, cfg.Items),
		marked:     make([]uint64, (cfg.Items+63)/64),
		byEstimate: make([]sketch.Summary, 0, cfg.Nodes),
		batch:      make([]topk.Update, 0, cfg.Items),
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
// value is the sum over all nodes of the node's estimate (accumulated, see
// the package doc), and the candidates go to the inner monitor as one
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
	var base int64 // Σ u_i over the nodes that state one
	m.byEstimate = m.byEstimate[:0]
	for _, s := range m.per {
		m.tracked = s.Tracked(m.tracked)
		u, uniform := s.UntrackedEstimate()
		if uniform {
			base += u
		} else {
			m.byEstimate = append(m.byEstimate, s)
		}
		for _, c := range m.tracked {
			m.marked[c.Item>>6] |= 1 << (c.Item & 63)
			if uniform {
				m.acc[c.Item] += c.Count - u
			}
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
			sum := m.acc[j] + base
			m.acc[j] = 0
			for _, s := range m.byEstimate {
				est, _ := s.Estimate(uint64(j))
				sum += est
			}
			if sum > topk.MaxValue {
				sum = topk.MaxValue
			}
			m.batch = append(m.batch, topk.Update{Node: j, Value: sum})
		}
	}
	return m.inner.UpdateBatch(m.batch)
}

// TopItems appends the current top-k ITEM ids to dst[:0] and returns it
// (the inner monitor's output — item ids are the inner node ids). Before
// the first Step it returns dst[:0].
func (m *Monitor) TopItems(dst []int) []int { return m.inner.TopK(dst) }

// Estimate returns the monitor's current aggregate estimate for one item
// — the sum of the per-node sketch estimates — and the summed error
// bound. It reads the sketches live (not the last pushed value).
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
// would produce, keeping every buffer. A reset monitor replays a fresh monitor's run bit for bit.
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
	for i, s := range m.per {
		s.Reset(nodeSeed(seed, i))
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
