package topk

import (
	"fmt"

	"topkmon/internal/faults"
	"topkmon/internal/oracle"
)

// Crash takes one monitored node down for a window of committed steps: the
// node receives no server messages and sends no reports during steps t with
// From ≤ t < Until (the first committed step is step 1). Its pushed values
// keep feeding the monitor's mirror — the data source is alive, the node's
// protocol endpoint is not — which is exactly the divergence the recovery
// supervisor must detect.
type Crash struct {
	Node  int   `json:"node"`
	From  int64 `json:"from"`
	Until int64 `json:"until"`
}

// FaultPlan describes deterministic transport faults to inject under the
// monitor: every coin comes from a dedicated RNG stream derived from the
// monitor's seed, so a faulty run replays byte-identically for equal seeds,
// pushes, and plans. The zero plan injects nothing but still arms the
// recovery supervisor, whose per-step validation then never fires — a
// zero-plan monitor is bit-for-bit equivalent to an unfaulted one.
//
// The JSON form is the "faults" object of a topkd tenant config, which the
// daemon's write-ahead log journals; its keys and their order are part of
// that log format.
type FaultPlan struct {
	// Drop is the per-message drop probability in [0, 1].
	Drop float64 `json:"drop,omitempty"`
	// Dup is the per-message duplication probability in [0, 1].
	Dup float64 `json:"dup,omitempty"`
	// Delay is the probability a filter assignment is applied one step
	// late instead of immediately.
	Delay float64 `json:"delay,omitempty"`
	// Retries is the reliability sublayer's redelivery budget per dropped
	// server→node unicast: 0 means the default (3), negative disables
	// retries.
	Retries int `json:"retries,omitempty"`
	// Crashes is the node crash/recover schedule.
	Crashes []Crash `json:"crashes,omitempty"`
}

// Injector converts the plan to the fault injector's form, as WithFaults
// does inside New (nil for a nil plan). Harness scaffolding like
// WithClusterEngine (the result's type lives under internal/, so code
// outside this module cannot use it): internal/chaintest wraps its direct
// runs' engines with it.
func (p *FaultPlan) Injector() *faults.Plan {
	if p == nil {
		return nil
	}
	fp := &faults.Plan{Drop: p.Drop, Dup: p.Dup, Delay: p.Delay, Retries: p.Retries}
	for _, c := range p.Crashes {
		fp.Crashes = append(fp.Crashes, faults.Crash{Node: c.Node, From: c.From, Until: c.Until})
	}
	return fp
}

// WithFaults arms the monitor's fault layer: the engine is wrapped in the
// deterministic fault injector (internal/faults) driven by plan, and the
// monitor supervises every committed step — validating the published
// output against the built-in referee, surfacing divergence through
// Health() and degradation events on Subscribe, and healing itself with
// epoch resyncs (re-broadcast filters, re-run the sweep) under bounded
// exponential backoff. The no-silent-wrong-answers guarantee: after every
// committed step, either Check() passes or Health().State != Fresh.
//
// A nil plan disables the fault layer (the default); a zero plan arms
// supervision with nothing to inject, which is bit-for-bit equivalent to
// an unfaulted monitor.
func WithFaults(plan *FaultPlan) Option {
	return func(c *config) { c.faults = plan }
}

// HealthState classifies the monitor's confidence in its published output.
type HealthState uint8

const (
	// Fresh: the last committed step's output passed the referee and no
	// divergence signal is outstanding.
	Fresh HealthState = iota
	// Recovering: an epoch resync just ran (or a protocol desync was
	// detected and healed proactively); the output is valid again but not
	// yet confirmed by a clean follow-up step.
	Recovering
	// Degraded: the last committed step's output failed validation — the
	// published top-k set may be wrong and readers are on notice.
	Degraded
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Recovering:
		return "recovering"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("HealthState(%d)", uint8(s))
	}
}

// Health is the monitor's self-assessment as of the last committed step.
// The zero value (Fresh, no staleness) is the permanent health of a
// monitor without WithFaults.
type Health struct {
	// State is the current confidence classification.
	State HealthState
	// StaleFor is the staleness age: the number of consecutive committed
	// steps (ending with the latest) whose published output failed
	// validation. Zero whenever the current output is valid.
	StaleFor int64
	// Err is the most recent validation failure, nil once the output
	// validates again.
	Err error
}

// Health returns the monitor's health. Without WithFaults it is always the
// zero Health (Fresh).
func (m *Monitor) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{State: m.health, StaleFor: m.staleFor, Err: m.healthErr}
}

// maxResyncBackoff caps the exponential backoff between resync attempts,
// in committed steps.
const maxResyncBackoff = 16

// guardedStepLocked runs the protocol step with panic isolation: under
// faults a desynced protocol may trip its own invariants (quiescence
// limits, report-shape assumptions), which must degrade the monitor, not
// crash the process. Without faults, panics stay fatal — they are harness
// bugs there, not weather.
func (m *Monitor) guardedStepLocked() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("topk: protocol failed under faults: %v", r)
		}
	}()
	if m.steps == 0 {
		m.mon.Start()
	} else {
		m.mon.HandleStep()
	}
	return nil
}

// validateLocked runs the built-in referee over the monitor's value mirror
// against the current output. Zero allocations in steady state.
func (m *Monitor) validateLocked() error {
	truth := oracle.ComputeInto(&m.sc, m.vals, m.k, m.e)
	return truth.ValidateEps(m.mon.Output())
}

// resyncLocked is the epoch resync: the algorithm is rebuilt on the (still
// possibly faulty) engine and opens a fresh epoch — re-broadcasting
// filters and re-running its opening sweep — exactly as a cold start
// would, with the epoch count carried over. The resync itself runs under
// panic isolation: a resync that fails leaves the monitor degraded for the
// next attempt.
func (m *Monitor) resyncLocked() (err error) {
	m.eng.Counters().Resync()
	m.epochBase += m.mon.Epochs()
	m.mon = m.mkMon(m.eng)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("topk: resync failed: %v", r)
		}
	}()
	m.mon.Start()
	return nil
}

// superviseLocked is the recovery supervisor, run after every committed
// step of a fault-armed monitor. It enforces the no-silent-wrong-answers
// guarantee: the step's final published output either passes the referee
// or leaves Health degraded, and detected divergence triggers an epoch
// resync under bounded exponential backoff (1, 2, 4, … up to
// maxResyncBackoff steps between attempts while the fault persists).
func (m *Monitor) superviseLocked(stepErr error) {
	verr := stepErr
	if verr == nil {
		verr = m.validateLocked()
	}
	desync := m.faulty.TakeDesync()

	if verr == nil && !desync {
		// Clean step: one clean step after a resync confirms recovery.
		if m.health == Degraded {
			m.health = Recovering
		} else {
			m.health = Fresh
		}
		if m.health == Fresh {
			m.resyncBackoff = 1
			m.resyncCooldown = 0
		}
		m.staleFor = 0
		m.healthErr = nil
		return
	}

	// Divergence: either the output is wrong (verr != nil) or an
	// impossible report proved the protocol state desynced even though the
	// output still validates. Resync now unless still in backoff.
	if m.resyncCooldown > 0 {
		m.resyncCooldown--
	} else {
		rerr := m.resyncLocked()
		m.resyncCooldown = m.resyncBackoff
		if m.resyncBackoff < maxResyncBackoff {
			m.resyncBackoff *= 2
		}
		if rerr == nil {
			// The resync rebuilt the output from live cluster state;
			// re-validate what readers will now see.
			verr = m.validateLocked()
		} else {
			verr = rerr
		}
	}

	if verr == nil {
		m.health = Recovering
		m.staleFor = 0
		m.healthErr = nil
	} else {
		m.health = Degraded
		m.staleFor++
		m.healthErr = verr
		m.eng.Counters().StaleStep()
	}
}
