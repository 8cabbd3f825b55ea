package httpapi

import (
	"fmt"
	"time"

	p2h "p2h"
)

// The SLO feedback controller: a daemon-side loop that samples each index's
// completion-latency histogram on a fixed interval and steps the engine's
// budget ceiling (p2h.Server.SetBudgetCeiling) down while the p99 objective
// is breached, restoring it as load recedes. Degradation is bounded (the
// ceiling never drops below MinBudget) and hysteretic (a breach must persist
// for BreachWindows consecutive windows to tighten, and RecoverWindows clean
// windows to relax one step), so a single slow scrape cannot flap the serving
// mode. The state machine per index:
//
//	level 0            exact: no ceiling, Budget flows through untouched
//	level L > 0        degraded: ceiling = max(MinBudget, N >> L)
//
// breach    -> L+1 (halve the ceiling), clear the recover streak
// recovery  -> L-1 (double it), back to exact at level 0
// idle      -> counts as recovery; an unloaded daemon walks back to exact
//
// A step-up is a probe: under genuinely receded load it sticks and the next
// one follows after RecoverWindows clean windows, but a probe that breaches
// right back doubles the clean-window requirement for the next attempt
// (capped at 32x). Under sustained overload the probes therefore become
// exponentially rarer — without that backoff the controller would lift the
// ceiling every RecoverWindows, and the periodic overshoot alone would blow
// the p99 it is defending.

// SLOConfig declares the latency objective and the controller's cadence.
// Zero-valued tuning fields select the documented defaults; TargetP99 is
// required.
type SLOConfig struct {
	// TargetP99 is the objective: the per-index p99 completion latency the
	// controller defends.
	TargetP99 Duration `json:"target_p99"`
	// Interval is the sampling period (zero: 500ms).
	Interval Duration `json:"interval,omitempty"`
	// MinBudget bounds degradation: the ceiling never drops below this many
	// candidate verifications (zero: 64).
	MinBudget int `json:"min_budget,omitempty"`
	// MinWindow is the fewest completions a window needs to be judged; a
	// thinner window is treated as idle (zero: 20).
	MinWindow int `json:"min_window,omitempty"`
	// BreachWindows is how many consecutive breached windows tighten one
	// step (zero: 2); RecoverWindows how many clean ones relax one (zero: 4).
	BreachWindows  int `json:"breach_windows,omitempty"`
	RecoverWindows int `json:"recover_windows,omitempty"`
}

func (c SLOConfig) validate() error {
	if c.TargetP99 <= 0 {
		return fmt.Errorf("%w: slo needs a positive \"target_p99\"", ErrBadConfig)
	}
	return nil
}

// withDefaults resolves the zero-valued tuning fields.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.Interval <= 0 {
		c.Interval = Duration(500 * time.Millisecond)
	}
	if c.MinBudget <= 0 {
		c.MinBudget = 64
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 20
	}
	if c.BreachWindows <= 0 {
		c.BreachWindows = 2
	}
	if c.RecoverWindows <= 0 {
		c.RecoverWindows = 4
	}
	return c
}

// maxDegradeLevel bounds the halving walk; past 30 the shift result is 0 for
// any real index and MinBudget is already the floor.
const maxDegradeLevel = 30

// sloState is the controller's per-index memory.
type sloState struct {
	level    int // degradation step; 0 = exact
	breaches int // consecutive breached windows
	clears   int // consecutive clean (or idle) windows
	prev     p2h.LatencySnapshot
	primed   bool // prev holds a real snapshot
	// Probe backoff: patience is the clean-window streak the next step-up
	// requires (starts at RecoverWindows); probing marks a step-up that has
	// not yet proven itself, sinceUp counts its clean windows so far.
	patience int
	probing  bool
	sinceUp  int
}

// maxPatienceFactor caps the probe backoff at this multiple of
// RecoverWindows, so a long overload cannot push recovery arbitrarily far
// out once load finally recedes.
const maxPatienceFactor = 32

// StartSLO launches the feedback controller; it runs until Close. Starting
// twice or after Close is an error.
func (m *Manager) StartSLO(cfg SLOConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrManagerClosed
	}
	if m.sloStop != nil {
		return fmt.Errorf("%w: SLO controller already running", ErrBadConfig)
	}
	m.sloCfg = cfg
	m.sloStop = make(chan struct{})
	m.sloDone = make(chan struct{})
	go m.runSLO(cfg, m.sloStop, m.sloDone)
	return nil
}

// SLO returns the running controller's configuration and whether one runs.
func (m *Manager) SLO() (SLOConfig, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sloCfg, m.sloStop != nil
}

// stopSLO halts the controller and waits for its loop to exit; idempotent.
// Callers must not hold m.mu (the loop takes it to list indexes).
func (m *Manager) stopSLO() {
	m.mu.Lock()
	stop, done := m.sloStop, m.sloDone
	m.sloStop, m.sloDone = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// runSLO is the controller loop. All per-index state lives in the local map,
// so the loop is single-threaded by construction; the only cross-goroutine
// effects are SetBudgetCeiling calls on the engines.
func (m *Manager) runSLO(cfg SLOConfig, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	states := map[string]*sloState{}
	ticker := time.NewTicker(time.Duration(cfg.Interval))
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		entries := m.entries()
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			seen[e.name] = true
			st := states[e.name]
			if st == nil {
				st = &sloState{}
				states[e.name] = st
			}
			m.sloStep(cfg, e, st)
		}
		// Forget unloaded (or swapped-away) indexes: a replacement engine
		// starts exact with fresh counters, so inherited state would judge
		// the wrong histogram.
		for name := range states {
			if !seen[name] {
				delete(states, name)
			}
		}
	}
}

// sloStep judges one index's latest window and steps its ceiling.
func (m *Manager) sloStep(cfg SLOConfig, e *managed, st *sloState) {
	snap := e.srv.Latency()
	if !st.primed {
		st.prev, st.primed = snap, true
		return
	}
	win := snap.Sub(st.prev)
	st.prev = snap
	breached := false
	if win.Total >= int64(cfg.MinWindow) {
		breached = win.Quantile(0.99) > time.Duration(cfg.TargetP99).Seconds()
	}
	if st.patience == 0 {
		st.patience = cfg.RecoverWindows
	}
	// An idle window cannot breach — and counts toward recovery, so a spike
	// that ends abruptly still walks back to exact.
	if breached {
		if st.probing {
			// The last step-up breached before proving itself: the overload
			// is still on, so back the probe cadence off exponentially.
			st.probing = false
			if st.patience < maxPatienceFactor*cfg.RecoverWindows {
				st.patience *= 2
			}
		}
		st.breaches++
		st.clears = 0
		if st.breaches >= cfg.BreachWindows && st.level < maxDegradeLevel {
			st.breaches = 0
			st.level++
			e.srv.SetBudgetCeiling(m.ceilingFor(cfg, e, st.level))
		}
		return
	}
	st.clears++
	st.breaches = 0
	if st.probing {
		st.sinceUp++
		if st.sinceUp >= cfg.RecoverWindows {
			// The probe stuck: load genuinely receded, so further step-ups
			// go back to the normal cadence.
			st.probing = false
			st.patience = cfg.RecoverWindows
		}
	}
	if st.clears >= st.patience && st.level > 0 {
		st.clears = 0
		st.level--
		st.probing, st.sinceUp = true, 0
		if st.level == 0 {
			st.probing = false
			st.patience = cfg.RecoverWindows
			e.srv.SetBudgetCeiling(0)
		} else {
			e.srv.SetBudgetCeiling(m.ceilingFor(cfg, e, st.level))
		}
	}
}

// ceilingFor is the degradation schedule: each level halves the candidate
// budget relative to the index size, floored at MinBudget. Reading N through
// Describe keeps the probe safe against concurrent mutation.
func (m *Manager) ceilingFor(cfg SLOConfig, e *managed, level int) int {
	n, _ := e.srv.Describe()
	c := n >> uint(level)
	if c < cfg.MinBudget {
		c = cfg.MinBudget
	}
	return c
}
