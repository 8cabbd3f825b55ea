package httpapi

import (
	"fmt"
	"time"

	p2h "p2h"
)

// The SLO feedback controller: a daemon-side loop that samples each index's
// completion-latency histogram every 500ms and steps the engine's budget
// ceiling (p2h.Server.SetBudgetCeiling) down while the p99 objective is
// breached, restoring it as load recedes. A window of fewer than 20
// completions counts as idle. Degradation is bounded (the ceiling never drops
// below MinBudget) and hysteretic (a breach must persist for two consecutive
// windows to tighten, and four clean windows to relax one step), so a single
// slow scrape cannot flap the serving mode. The state machine per index:
//
//	level 0            exact: no ceiling, Budget flows through untouched
//	level L > 0        degraded: ceiling = max(MinBudget, N >> L)
//
// breach    -> L+1 (halve the ceiling), clear the recover streak
// recovery  -> L-1 (double it), back to exact at level 0
// idle      -> counts as recovery; an unloaded daemon walks back to exact
//
// A step-up is a probe: under genuinely receded load it sticks and the next
// one follows after four clean windows, but a probe that breaches
// right back doubles the clean-window requirement for the next attempt
// (capped at 32x). Under sustained overload the probes therefore become
// exponentially rarer — without that backoff the controller would lift the
// ceiling every four windows, and the periodic overshoot alone would blow
// the p99 it is defending.

// SLOConfig declares the latency objective and the degradation floor;
// TargetP99 is required.
type SLOConfig struct {
	// TargetP99 is the objective: the per-index p99 completion latency the
	// controller defends.
	TargetP99 Duration `json:"target_p99"`
	// MinBudget bounds degradation: the ceiling never drops below this many
	// candidate verifications (zero: 64).
	MinBudget int `json:"min_budget,omitempty"`
}

func (c SLOConfig) validate() error {
	if c.TargetP99 <= 0 {
		return fmt.Errorf("%w: slo needs a positive \"target_p99\"", ErrBadConfig)
	}
	return nil
}

// sloCadence is the controller's timing: the sampling period, the fewest
// completions a window needs to be judged (a thinner window counts as
// idle), and how many consecutive breached windows tighten one step and
// clean ones relax one. A daemon always runs sloDefaultCadence.
type sloCadence struct {
	interval                                 time.Duration
	minWindow, breachWindows, recoverWindows int
}

var sloDefaultCadence = sloCadence{
	interval:       500 * time.Millisecond,
	minWindow:      20,
	breachWindows:  2,
	recoverWindows: 4,
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
	// requires (starts at recoverWindows); probing marks a step-up that has
	// not yet proven itself, sinceUp counts its clean windows so far.
	patience int
	probing  bool
	sinceUp  int
}

// maxPatienceFactor caps the probe backoff at this multiple of
// recoverWindows, so a long overload cannot push recovery arbitrarily far
// out once load finally recedes.
const maxPatienceFactor = 32

// StartSLO launches the feedback controller; it runs until Close. Starting
// twice or after Close is an error.
func (m *Manager) StartSLO(cfg SLOConfig) error { return m.startSLO(cfg, sloDefaultCadence) }

// startSLO is StartSLO on any cadence; tests run a fast one.
func (m *Manager) startSLO(cfg SLOConfig, cad sloCadence) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.MinBudget <= 0 {
		cfg.MinBudget = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrManagerClosed
	}
	if m.sloStop != nil {
		return fmt.Errorf("%w: SLO controller already running", ErrBadConfig)
	}
	m.sloStop = make(chan struct{})
	m.sloDone = make(chan struct{})
	go m.runSLO(cfg, cad, m.sloStop, m.sloDone)
	return nil
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
func (m *Manager) runSLO(cfg SLOConfig, cad sloCadence, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	states := map[string]*sloState{}
	ticker := time.NewTicker(cad.interval)
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
			m.sloStep(cfg, cad, e, st)
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
func (m *Manager) sloStep(cfg SLOConfig, cad sloCadence, e *managed, st *sloState) {
	snap := e.srv.Latency()
	if !st.primed {
		st.prev, st.primed = snap, true
		return
	}
	win := snap.Sub(st.prev)
	st.prev = snap
	breached := false
	if win.Total >= int64(cad.minWindow) {
		breached = win.Quantile(0.99) > time.Duration(cfg.TargetP99).Seconds()
	}
	if st.patience == 0 {
		st.patience = cad.recoverWindows
	}
	// An idle window cannot breach — and counts toward recovery, so a spike
	// that ends abruptly still walks back to exact.
	if breached {
		if st.probing {
			// The last step-up breached before proving itself: the overload
			// is still on, so back the probe cadence off exponentially.
			st.probing = false
			if st.patience < maxPatienceFactor*cad.recoverWindows {
				st.patience *= 2
			}
		}
		st.breaches++
		st.clears = 0
		if st.breaches >= cad.breachWindows && st.level < maxDegradeLevel {
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
		if st.sinceUp >= cad.recoverWindows {
			// The probe stuck: load genuinely receded, so further step-ups
			// go back to the normal cadence.
			st.probing = false
			st.patience = cad.recoverWindows
		}
	}
	if st.clears >= st.patience && st.level > 0 {
		st.clears = 0
		st.level--
		st.probing, st.sinceUp = true, 0
		if st.level == 0 {
			st.probing = false
			st.patience = cad.recoverWindows
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
