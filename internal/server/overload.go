package server

// Overload resilience: the admission-controlled, deadline-aware entries
// (SearchCtx, SearchBatchCtx) and the two feedback signals they run on — an
// EWMA of per-query service time for the latency-derived admission limit,
// and a fixed-bucket latency histogram an external SLO controller samples to
// step the degradation ceiling (SetBudgetCeiling).
//
// The blocking Search path is untouched by all of this: in-process callers
// (benchmarks, tests, batch tooling) wait for a slot without shedding and
// without deadlines. Only the Ctx entries can be rejected.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"sync/atomic"
	"time"

	"p2h/internal/core"
)

// ErrOverloaded is the errors.Is target for admission rejections; the
// concrete error is an *OverloadError carrying the suggested retry delay.
var ErrOverloaded = errors.New("server: overloaded")

// ErrDraining is returned by SearchCtx, SearchBatchCtx, Insert, Delete and
// Exclusive once Drain or Close has stopped intake (where the blocking Search
// would panic).
var ErrDraining = errors.New("server: engine draining")

// OverloadError reports a shed request: the engine's backlog exceeded what
// it can drain within the configured queueing-delay bound, so the request
// was rejected instead of admitted to a wait it would only time out in.
type OverloadError struct {
	// Backlog is the number of admitted-but-unfinished queries at
	// rejection time.
	Backlog int64
	// Limit is the admission limit the backlog exceeded.
	Limit int64
	// RetryAfter estimates how long until the backlog drains to the limit —
	// the value an HTTP layer forwards as a Retry-After header.
	RetryAfter time.Duration
}

// Error describes the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded: backlog %d over limit %d, retry after %v",
		e.Backlog, e.Limit, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// ewmaAlpha weights the service-time moving average; small enough to ride
// out one odd sample, large enough to track a load shift within tens of
// them.
const ewmaAlpha = 0.2

// observeService folds one per-query service-time sample (how long a slot
// was held, divided by the queries it served) into the EWMA.
func (e *Engine) observeService(perQuery time.Duration) {
	for {
		old := e.ewmaSvc.Load()
		cur := math.Float64frombits(old)
		next := float64(perQuery)
		if cur != 0 {
			next = ewmaAlpha*next + (1-ewmaAlpha)*cur
		}
		if e.ewmaSvc.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// serviceTime returns the smoothed per-query service time, or zero before
// the first sample.
func (e *Engine) serviceTime() time.Duration {
	return time.Duration(math.Float64frombits(e.ewmaSvc.Load()))
}

// admissionLimit is the backlog bound the Ctx entries shed against: the
// static MaxQueue ceiling, tightened by the latency-derived limit — the
// number of queries the worker slots can drain within MaxQueueDelay at the
// current smoothed service time. Zero means unlimited (shedding disabled).
func (e *Engine) admissionLimit() int64 {
	if e.cfg.MaxQueue < 0 {
		return 0
	}
	limit := int64(e.cfg.MaxQueue)
	if svc := e.serviceTime(); svc > 0 {
		derived := int64(e.cfg.MaxQueueDelay) * int64(e.cfg.Workers) / int64(svc)
		if derived < int64(e.cfg.Workers) {
			// Never shed below one query per worker: the slots must stay
			// busy even when a misbehaving index makes single queries slow.
			derived = int64(e.cfg.Workers)
		}
		if derived < limit {
			limit = derived
		}
	}
	return limit
}

// admit decides whether one more call of n queries may enter. The test is
// "backlog under the limit at arrival" — a call is admitted or shed as a
// unit, so an idle engine serves a batch larger than the limit. It returns
// nil and leaves the backlog grown by n on admission; on rejection the
// backlog is untouched and the error carries the retry estimate.
func (e *Engine) admit(n int) error {
	limit := e.admissionLimit()
	for {
		b := e.backlog.Load()
		if limit > 0 && b >= limit {
			e.shed.Add(int64(n))
			svc := e.serviceTime()
			if svc <= 0 {
				svc = time.Millisecond
			}
			retry := time.Duration(b-limit+int64(e.cfg.Workers)) * svc / time.Duration(e.cfg.Workers)
			if retry < time.Millisecond {
				retry = time.Millisecond
			}
			return &OverloadError{Backlog: b, Limit: limit, RetryAfter: retry}
		}
		if e.backlog.CompareAndSwap(b, b+int64(n)) {
			return nil
		}
	}
}

// SearchCtx is the deadline-aware, admission-controlled form of Search — the
// entry a network serving layer uses. It differs from Search in three ways:
//
//   - Admission control: when the backlog of admitted-but-unfinished
//     queries exceeds what the slots can drain within MaxQueueDelay, the
//     request is rejected immediately with an *OverloadError
//     (errors.Is(err, ErrOverloaded)) instead of joining a wait it would
//     only expire in. Rejecting the newest arrival keeps the work already
//     admitted meaningful.
//
//   - Deadline propagation: a request whose ctx expires while it waits for
//     a slot gives up there (ctx.Err() is returned, no index work is done);
//     one that expires mid-search abandons the remaining traversal at the
//     next leaf-block boundary (core.SearchOptions.Cancel) and returns
//     ctx.Err() alongside the partial results found so far.
//
//   - Closed engines return ErrDraining instead of panicking.
//
// Malformed queries still panic, exactly like Search — that contract belongs
// to the query, not the transport. A nil or never-canceled ctx makes
// SearchCtx behave like Search plus admission control.
func (e *Engine) SearchCtx(ctx context.Context, q []float32, opts core.SearchOptions) ([]core.Result, core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.search(ctx, q, opts, true)
}

// SetBudgetCeiling caps the candidate budget of every subsequently submitted
// search: queries asking for exact answers (Budget <= 0) or for more than
// the ceiling run with Budget = ceiling instead. Zero (or negative) removes
// the cap. This is the engine's degradation knob — an SLO controller steps
// it down when the latency objective is breached and back up as load
// recedes. Cached results are unaffected in correctness terms: the budget is
// part of the cache key, so degraded and exact answers never alias.
func (e *Engine) SetBudgetCeiling(ceiling int) {
	if ceiling < 0 {
		ceiling = 0
	}
	e.budgetCeiling.Store(int64(ceiling))
}

// BudgetCeiling returns the current degradation cap (zero when serving
// exact).
func (e *Engine) BudgetCeiling() int {
	return int(e.budgetCeiling.Load())
}

// applyCeiling clamps the budget of one call's n queries to the degradation
// ceiling. Must run before the options reach cache-key computation or the
// batch-eligibility test, so every downstream consumer sees one consistent
// budget.
func (e *Engine) applyCeiling(opts core.SearchOptions, n int) core.SearchOptions {
	if c := e.budgetCeiling.Load(); c > 0 && (opts.Budget <= 0 || opts.Budget > int(c)) {
		opts.Budget = int(c)
		e.degradedQueries.Add(int64(n))
	}
	return opts
}

// cancelFor builds the cooperative cancellation hook the tree traversals
// poll between leaf blocks. Nil when ctx can never end — the nil check
// inside core.SearchOptions.Canceled keeps the unexpired path at one branch
// per node visit.
func cancelFor(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// numLatBuckets fixed upper bounds span cache-hit microseconds to
// stuck-second outliers.
const numLatBuckets = 16

var latBounds = [numLatBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use: the
// engine's completion latencies, and in internal/httpapi every endpoint's
// request latencies — one bucket table, so the two agree about where a
// percentile falls. The zero value is ready.
type Histogram struct {
	counts [numLatBuckets]atomic.Int64
	total  atomic.Int64
	sumNS  atomic.Int64
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range latBounds {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.total.Add(1) // observations above the last bound live only in total
	h.sumNS.Add(int64(d))
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() LatencySnapshot {
	var s LatencySnapshot
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Total = h.total.Load()
	s.Sum = time.Duration(h.sumNS.Load())
	return s
}

// LatencySnapshot is a point-in-time copy of a Histogram (the engine's times
// slot wait plus service, per serving call). Subtract two snapshots to get a
// window, then ask the window for a quantile — the loop an SLO controller
// runs.
type LatencySnapshot struct {
	// Counts[i] holds observations at or below bucket i's upper bound (see
	// Buckets); observations beyond the last bound count only toward Total.
	Counts [numLatBuckets]int64
	// Total is every observation, including the implicit +Inf bucket.
	Total int64
	// Sum is the observations' total duration.
	Sum time.Duration
}

// Latency snapshots the engine's completion-latency histogram.
func (e *Engine) Latency() LatencySnapshot { return e.latency.Snapshot() }

// Buckets yields every bucket's upper bound in seconds with the cumulative
// count of observations at or below it, in ascending order — a Prometheus
// histogram's _bucket series without the +Inf one, which is Total.
func (s LatencySnapshot) Buckets() iter.Seq2[float64, int64] {
	return func(yield func(float64, int64) bool) {
		var cum int64
		for i, ub := range latBounds {
			cum += s.Counts[i]
			if !yield(ub, cum) {
				return
			}
		}
	}
}

// Sub returns the windowed histogram of observations between prev and s.
func (s LatencySnapshot) Sub(prev LatencySnapshot) LatencySnapshot {
	var d LatencySnapshot
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	d.Total = s.Total - prev.Total
	d.Sum = s.Sum - prev.Sum
	return d
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds by linear
// interpolation inside the containing bucket. Observations beyond the last
// bound report the last bound — a floor, which is the conservative direction
// for a breach detector. Zero when the window is empty.
func (s LatencySnapshot) Quantile(q float64) float64 {
	if s.Total <= 0 {
		return 0
	}
	rank := q * float64(s.Total)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latBounds[i-1]
		}
		if float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(latBounds[i]-lo)
		}
		cum += c
	}
	return latBounds[numLatBuckets-1]
}
