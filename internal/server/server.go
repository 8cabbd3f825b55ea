// Package server turns a P2HNNS index into a concurrent
// query-serving engine: callers from any number of goroutines search through
// a bounded set of worker slots, are answered through a bounded result
// cache, and — when the underlying index is mutable — stay
// snapshot-consistent against concurrent inserts and deletes.
//
// The engine adds three mechanisms on top of a plain Searcher:
//
//   - Caller-runs under slots. A search executes on the goroutine that
//     submitted it, holding one of Workers slots for the index work; the
//     engine owns no queue and no goroutine of its own (bar a mutable
//     index's compaction loop), so a panic raised by the index or a user Filter
//     unwinds into its caller by construction. A batch that arrives as a
//     batch (SearchBatchCtx) is split into min(Workers, misses) contiguous
//     chunks, each one slot and one SearchBatch call (a chunk of one row is
//     one Search). Every search, batched or not, carries the caller's
//     deadline as its Cancel hook.
//
//   - Result caching. A query is canonicalized to its unit-normal form, so
//     scaled duplicates of the same hyperplane share one cache slot. The
//     cache key is the canonical query plus the semantically relevant
//     SearchOptions fields; entries live in a bounded LRU and are stamped
//     with the mutation epoch at which they were computed, so any insert or
//     delete invalidates every older entry without an eager sweep. Queries
//     with a Filter attached bypass the cache (a filter is an arbitrary
//     function, with no key). A Profile changes nothing here: a profiled
//     query is looked up like any other, and a hit charges it no phase.
//     Cache hits are answered before a slot is taken.
//
//   - Snapshot-consistent mutation. When the engine is given a Mutator,
//     searches run under a read lock and mutations under the write lock of
//     one RWMutex, and every mutation bumps an epoch counter. A search
//     therefore always observes a fully applied state — never a
//     half-rebuilt tree — and cached results can never leak across a
//     mutation. Immutable indexes skip the lock entirely: every index in
//     this repository is safe for concurrent readers. A mutable index's
//     delta is folded by a goroutine the engine owns, never inside the
//     mutation that outgrew the threshold.
//
// One lifecycle: searches, Insert/Delete (through their journal wait) and
// Exclusive sections all pass one intake gate, and Drain waits for what is
// inside it. After Drain or Close, Search panics and every other entry
// returns ErrDraining before touching the index or the journal, so Close may
// race any call and the journal may be closed once Drain returns — unless a
// caller still holds a place it took with Hold before the drain.
package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/exec"
	"p2h/internal/faultinject"
	"p2h/internal/vec"
)

// Searcher is the minimal read surface the engine serves. p2h.Index
// satisfies it.
type Searcher interface {
	// Search answers one top-k hyperplane query; q has length Dim()+1 and
	// the engine guarantees a unit normal.
	Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats)
	// SearchBatch answers one query per row of queries, each as Search
	// takes it, with the per-row Search answers. The engine's options carry
	// the deadline's Cancel hook, which the index polls as its Search does.
	SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats)
	// Dim is the raw point dimensionality; queries carry one extra offset
	// coordinate.
	Dim() int
}

// Mutator is the write surface of a mutable index (p2h.Dynamic): one insert
// carrying the point's attribute payload, one delete, the delta size, and
// the compaction hooks the engine's compaction loop drives. Every method is
// called under the engine's mutation lock.
type Mutator interface {
	// Insert adds a raw point with its attribute payload (the zero Point:
	// none) and returns its stable handle. An error means the index refused
	// the point and nothing changed.
	Insert(p []float32, at attr.Point) (int32, error)
	// Delete removes a handle and reports whether it was live.
	Delete(handle int32) bool
	// Pending is the un-folded delta searches pay for (Stats.PendingDelta).
	Pending() int
	// SetBackgroundCompaction hands delta folding to the engine (true) or
	// back to inline rebuilds (false, once the engine has drained).
	SetBackgroundCompaction(on bool)
	// CompactionNeeded reports whether the delta has outgrown the index's
	// compaction threshold.
	CompactionNeeded() bool
	// BeginCompaction captures the rebuild and returns a build closure to run
	// unlocked plus an install closure to run under the lock again; both nil
	// when there is nothing to fold. Searches proceed against the old tree for
	// the whole build, and the index reconciles mutations that land during it.
	BeginCompaction() (build, install func())
}

// Journal is a durability sink for applied mutations (p2h's write-ahead
// log). The engine appends every applied Insert/Delete under the lock that
// serialized the mutation, so the log order is the apply order, then waits
// for durability outside it, so concurrent mutations share one fsync. An
// append or wait error goes to the mutating caller instead of an
// acknowledgement: an acknowledged mutation is always in the journal.
type Journal interface {
	// AppendInsert logs an applied insert: the handle the index assigned,
	// the raw point as submitted and its attribute payload.
	AppendInsert(handle int32, p []float32, at attr.Point) error
	// AppendDelete logs an applied delete of a previously live handle.
	AppendDelete(handle int32) error
	// WaitDurable returns once every record appended before the call is
	// durable.
	WaitDurable() error
}

// ErrImmutable is returned by Insert/Delete when the wrapped index has no
// mutation surface.
var ErrImmutable = errors.New("server: underlying index does not support mutation")

// Config parameterizes an Engine; zero values select the documented
// defaults.
type Config struct {
	// Workers is the number of slots index work runs under — the searches
	// (or batch chunks) executing at once (zero: GOMAXPROCS).
	Workers int
	// CacheEntries bounds the result cache (zero: 1024; negative: cache
	// disabled).
	CacheEntries int
	// MaxQueue is the static ceiling on queries admitted through SearchCtx
	// and SearchBatchCtx but not yet finished — waiting for a slot plus
	// executing (zero: 64*Workers; negative: admission control disabled).
	// The blocking Search path ignores it.
	MaxQueue int
	// MaxQueueDelay bounds the queueing delay admission control will accept
	// (zero: 50ms): when the backlog's expected drain time at the smoothed
	// service rate exceeds it, SearchCtx sheds new arrivals with an
	// *OverloadError rather than admit requests that would only expire in
	// the queue.
	MaxQueueDelay time.Duration
	// Journal, when non-nil, receives every applied mutation before it is
	// acknowledged; see Journal.
	Journal Journal
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64 * c.Workers
	}
	if c.MaxQueueDelay <= 0 {
		c.MaxQueueDelay = 50 * time.Millisecond
	}
	return c
}

// Stats is a point-in-time snapshot of the engine's counters. The JSON names
// are the wire's: a daemon's index description carries the snapshot as it is.
type Stats struct {
	Queries     int64  `json:"queries"`      // searches served
	Batches     int64  `json:"batches"`      // serving calls, one per Search/SearchCtx/SearchBatchCtx: Queries/Batches is the mean request size
	CacheHits   int64  `json:"cache_hits"`   // searches answered from the cache
	CacheMisses int64  `json:"cache_misses"` // cacheable searches that ran the index
	Inserts     int64  `json:"inserts"`      // successful Insert calls
	Deletes     int64  `json:"deletes"`      // Delete calls that removed a live handle
	Epoch       uint64 `json:"epoch"`        // mutation epoch (0 until the first mutation)
	Compactions int64  `json:"compactions"`  // background compaction cycles installed
	// PendingDelta is the mutable index's un-folded delta (insert buffer +
	// tombstones) at snapshot time — what searches pay for linearly until
	// the next rebuild or compaction. Zero for immutable indexes.
	PendingDelta int `json:"pending_delta"`

	// Overload counters (see SearchCtx and SetBudgetCeiling).

	Shed            int64 `json:"shed"`             // queries rejected by admission control
	Expired         int64 `json:"expired"`          // queries the deadline left without an answer known to be complete: every row of a call or chunk it outlasted
	Panics          int64 `json:"panics"`           // panics raised while serving, returned to their caller
	DegradedQueries int64 `json:"degraded_queries"` // searches whose budget the degradation ceiling clamped
	BudgetCeiling   int   `json:"budget_ceiling"`   // current degradation cap (zero: serving exact)
	Backlog         int64 `json:"backlog"`          // admitted-but-unfinished queries right now

	// Predicate-pushdown totals, accumulated over every search the index
	// actually ran (cache hits replay an answer without re-pruning): whole
	// subtrees the per-node attribute summaries proved could not match, and
	// the points under them.
	FilterSkippedNodes  int64 `json:"filter_skipped_nodes"`
	FilterSkippedPoints int64 `json:"filter_skipped_points"`
}

// Engine is the concurrent serving layer. All methods are safe for
// concurrent use.
type Engine struct {
	ix  Searcher
	mut Mutator // nil for immutable indexes
	cfg Config
	dim int // query length, ix.Dim()+1

	mu    sync.RWMutex  // searches read-lock, mutations write-lock (mut != nil only)
	epoch atomic.Uint64 // bumped by every applied mutation
	cache *lru          // nil when disabled

	slots     chan struct{} // one token per executing search or batch chunk (cap Workers)
	closed    atomic.Bool   // set by the first Drain: intake stopped
	active    atomic.Int64  // serving calls in flight and held places, plus the compaction loop
	held      atomic.Int64  // places taken by Hold and not yet released
	unhold    func()        // the release Hold returns, made once
	idle      chan struct{} // closed once closed is set and active reached zero
	idleOnce  sync.Once
	compactCh chan struct{} // wake signal for the compaction loop (cap 1)
	stopComp  chan struct{} // closed by the first Drain
	handBack  sync.Once     // returns delta folding to the index once idle

	queries, batchCount, hits, misses, inserts, deletes, compactions atomic.Int64
	fltSkipNodes, fltSkipPoints                                      atomic.Int64

	// Overload state (see overload.go): the admitted-but-unfinished query
	// count, shed/expired/panic counters, the smoothed per-query service
	// time (float64 bits), the degradation ceiling, and the completion
	// latency histogram the SLO controller samples.
	backlog         atomic.Int64
	shed            atomic.Int64
	expired         atomic.Int64
	panics          atomic.Int64
	degradedQueries atomic.Int64
	ewmaSvc         atomic.Uint64
	budgetCeiling   atomic.Int64
	latency         Histogram
}

// New builds an engine over ix. Pass the index's mutation surface as mut (or
// nil for read-only serving); when non-nil, the engine serializes
// Insert/Delete against searches, invalidates the cache on every applied
// mutation, and folds the delta on its compaction loop until Drain.
func New(ix Searcher, mut Mutator, cfg Config) *Engine {
	cfg = cfg.normalized()
	e := &Engine{
		ix:    ix,
		mut:   mut,
		cfg:   cfg,
		dim:   ix.Dim() + 1,
		slots: make(chan struct{}, cfg.Workers),
		idle:  make(chan struct{}),
	}
	e.unhold = func() {
		e.held.Add(-1)
		e.exit()
	}
	if cfg.CacheEntries > 0 {
		e.cache = newLRU(cfg.CacheEntries)
	}
	if mut != nil {
		mut.SetBackgroundCompaction(true)
		e.compactCh = make(chan struct{}, 1)
		e.stopComp = make(chan struct{})
		e.active.Add(1)
		go e.compactLoop()
	}
	return e
}

// Search answers one top-k hyperplane query on the calling goroutine,
// waiting without bound for a worker slot. Like Index.Search it panics on a
// malformed query; searching a closed engine panics too. The blocking path
// is never shed, but it still counts toward the backlog (and the latency
// histogram) so admission control and the SLO controller see the whole load,
// whichever door it came through.
func (e *Engine) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	res, st, err := e.search(context.Background(), q, opts, false)
	if err == ErrDraining {
		panic("server: Search on closed engine")
	}
	return res, st
}

// search is Search and SearchCtx: a batch of one whose bookkeeping lives on
// the caller's stack.
func (e *Engine) search(ctx context.Context, q []float32, opts core.SearchOptions, shed bool) ([]core.Result, core.Stats, error) {
	norm := e.checkQuery(q)
	start, err := e.begin(ctx, 1, shed)
	if err != nil {
		return nil, core.Stats{}, err
	}
	defer e.end(1, start)

	var (
		res  [1][]core.Result
		sts  [1]core.Stats
		hash [1]uint64
		row  [1]int
	)
	c := e.newCall(ctx, opts, 1, q)
	m := misses{row: row[:], hash: hash[:], res: res[:], sts: sts[:]}
	if !core.UnitNormBand(norm) {
		c.canon = canonicalize(make([]float32, e.dim), q, norm)
	}
	var hit bool
	if hash[0], hit = e.probe(&c, c.canon, &res[0], &sts[0]); !hit {
		err = e.serve(&c, &m, 0, 1)
	}
	return res[0], sts[0], err
}

// SearchBatchCtx answers a batch that arrived as a batch: one top-k query
// per row of queries, all under opts and ctx's deadline, results and stats
// in row order. The batch passes admission as a unit (the backlog is tested
// at arrival and then grows by len(queries), so an idle engine serves a batch
// of any size), every row is canonicalized and looked up in the cache, and
// the misses are split into min(Workers, misses) contiguous chunks — a
// function of the request, Workers and the cache contents, never of arrival
// timing. Each chunk takes one worker slot and is one SearchBatch call (a
// chunk of one row is one Search), at any budget, with the deadline's
// cancellation hook installed. The error
// is all-or-nothing: a shed, drained or expired batch returns no results.
// Malformed rows panic before anything runs, exactly like Search. A Profile
// changes no chunk: every chunk charges it, so its phases sum the workers'
// time and can exceed the call's wall time.
func (e *Engine) SearchBatchCtx(ctx context.Context, queries [][]float32, opts core.SearchOptions) ([][]core.Result, []core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(queries)
	norms := make([]float64, n)
	for i, q := range queries {
		norms[i] = e.checkQuery(q)
	}
	start, err := e.begin(ctx, n, true)
	if err != nil {
		return nil, nil, err
	}
	defer e.end(n, start)

	c := e.newCall(ctx, opts, n, make([]float32, n*e.dim))
	m := &misses{row: make([]int, 0, n), hash: make([]uint64, 0, n), res: make([][]core.Result, n), sts: make([]core.Stats, n)}
	for i, q := range queries {
		// A hit leaves its slot of the packed buffer to the next row.
		j := len(m.row)
		cq := canonicalize(c.canon[j*e.dim:(j+1)*e.dim], q, norms[i])
		if h, hit := e.probe(&c, cq, &m.res[i], &m.sts[i]); !hit {
			m.row = append(m.row, i)
			m.hash = append(m.hash, h)
		}
	}
	if err := exec.ForChunks(len(m.row), e.cfg.Workers, func(lo, hi int) error { return e.serve(&c, m, lo, hi) }); err != nil {
		return nil, nil, err
	}
	return m.res, m.sts, nil
}

// checkQuery is the one shared checked path (core.CheckQuery), run in the
// calling goroutine before anything is admitted — the engine's documented
// panic semantics, implemented once for every index kind. It returns
// ||normal||.
func (e *Engine) checkQuery(q []float32) float64 {
	norm, err := core.CheckQuery(q, e.dim-1)
	if err != nil {
		panic("server: " + err.Error())
	}
	return norm
}

// enter is the intake gate of begin, mutate, Exclusive and Hold; every nil
// return is closed by exit. The active count goes up before closed is read and
// Drain sets closed before it reads the count, so a call sees the drain or is
// seen. A held place keeps the gate open: it counts as active, so the engine
// cannot have gone idle under it.
func (e *Engine) enter() error {
	e.active.Add(1)
	if e.closed.Load() && e.held.Load() == 0 {
		e.exit()
		return ErrDraining
	}
	return nil
}

// Hold takes a place in the intake gate and returns its release, to run
// exactly once. Drain waits for a held place as for a call in flight, and
// calls are admitted while one is held, so a caller that found the engine
// before it was retired is answered, not refused. After the drain it is
// refused.
func (e *Engine) Hold() (release func(), err error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	e.held.Add(1)
	return e.unhold, nil
}

// begin opens a serving call of n queries: the intake gate, the
// expired-at-the-door check, admission (shed calls only) and the backlog.
// Every begin that returns nil is closed by end.
func (e *Engine) begin(ctx context.Context, n int, shed bool) (time.Time, error) {
	if err := e.enter(); err != nil {
		return time.Time{}, err
	}
	var err error
	switch {
	case ctx.Err() != nil:
		e.expired.Add(int64(n))
		err = ctx.Err()
	case shed:
		err = e.admit(n)
	default:
		e.backlog.Add(int64(n))
	}
	if err != nil {
		e.exit()
		return time.Time{}, err
	}
	e.batchCount.Add(1)
	e.queries.Add(int64(n))
	return time.Now(), nil
}

// end closes a serving call, as a deferred call: it settles the backlog and
// the latency histogram and, when the call is unwinding from a panic (an
// index bug, a user Filter), counts it and lets it continue into the caller.
func (e *Engine) end(n int, start time.Time) {
	e.backlog.Add(int64(-n))
	e.latency.Observe(time.Since(start))
	e.exit()
	if p := recover(); p != nil {
		e.panics.Add(1)
		panic(p)
	}
}

// exit retires one call (or the compaction loop); the last one out after
// Drain reports the engine idle.
func (e *Engine) exit() {
	if e.active.Add(-1) == 0 && e.closed.Load() {
		e.idleOnce.Do(func() { close(e.idle) })
	}
}

// Insert adds a point with its attribute payload (the zero Point: none)
// through the mutation surface, serialized against searches, and returns the
// stable handle the index assigned. A point the index refuses changes
// nothing and returns its error. With a Journal configured, a non-nil error
// after the point was applied means its log append or durability wait failed
// — the caller must not acknowledge it as durable (and the journal refuses
// further appends until reset, so no later mutation can be logged over the
// gap). After Drain or Close it returns ErrDraining and touches neither the
// index nor the journal.
func (e *Engine) Insert(p []float32, at attr.Point) (int32, error) {
	var h int32
	_, err := e.mutate(&e.inserts, func() (bool, error) {
		var err error
		h, err = e.mut.Insert(p, at)
		return err == nil, err
	}, func() error { return e.cfg.Journal.AppendInsert(h, p, at) })
	return h, err
}

// Delete removes a handle through the mutation surface, serialized against
// searches. It reports whether the handle was live. Journal errors and a
// drained engine behave as in Insert.
func (e *Engine) Delete(handle int32) (bool, error) {
	return e.mutate(&e.deletes, func() (bool, error) { return e.mut.Delete(handle), nil },
		func() error { return e.cfg.Journal.AppendDelete(handle) })
}

// mutate is the one write path, inside the intake gate until its journal
// wait is over. Under the write lock it runs apply; when
// apply changed the index it bumps the epoch (invalidating every cached
// answer), appends the change to the journal with log, counts it and wakes
// the compactor. Outside the lock it waits for the journal's group commit:
// concurrent mutations (and searches) proceed while this record's fsync is
// in flight, and every mutation that appended before the flush lands rides
// the same one. It reports whether apply changed the index.
func (e *Engine) mutate(count *atomic.Int64, apply func() (bool, error), log func() error) (bool, error) {
	if err := e.enter(); err != nil {
		return false, err
	}
	defer e.exit()
	if e.mut == nil {
		return false, ErrImmutable
	}
	changed, err := func() (bool, error) {
		e.mu.Lock()
		defer e.mu.Unlock() // deferred so a panicking mutator cannot wedge the lock
		if changed, err := apply(); !changed {
			return false, err
		}
		e.epoch.Add(1)
		if e.cfg.Journal != nil {
			if err := log(); err != nil {
				return true, err
			}
		}
		count.Add(1)
		e.wakeCompactor()
		return true, nil
	}()
	if err == nil && changed && e.cfg.Journal != nil {
		err = e.cfg.Journal.WaitDurable()
	}
	return changed, err
}

// wakeCompactor nudges the compaction loop when a mutation pushed the delta
// over the threshold. Called with the write lock held; the send never
// blocks (the channel holds one pending wake).
func (e *Engine) wakeCompactor() {
	if e.compactCh == nil || !e.mut.CompactionNeeded() {
		return
	}
	select {
	case e.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop folds the index's delta off the mutation path: on every wake
// it runs capture/build/install cycles until the delta is back under the
// threshold, holding the mutation lock only for capture and install.
// Mutations landing during a build are reconciled at install by the index
// (see Mutator.BeginCompaction); a cycle therefore never blocks the very mutations that
// outgrow the threshold again, which is why the loop re-checks and chains.
// Drain stops the loop; the index folds inline again once a Drain has seen
// the engine idle.
func (e *Engine) compactLoop() {
	defer e.exit()
	for {
		select {
		case <-e.stopComp:
			return
		case <-e.compactCh:
		}
		for {
			select {
			case <-e.stopComp:
				return
			default:
			}
			var build, install func()
			e.mu.Lock()
			if e.mut.CompactionNeeded() {
				build, install = e.mut.BeginCompaction()
			}
			e.mu.Unlock()
			if build == nil {
				break
			}
			build()
			// No epoch bump: a compaction changes the tree, not the answer
			// set, so cached results stay exact. The count moves under the
			// lock, so a Stats that reads the folded delta counts the fold.
			e.mu.Lock()
			install()
			e.compactions.Add(1)
			e.mu.Unlock()
		}
	}
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	pending := 0
	if e.mut != nil {
		// The delta shrinks under the mutation lock (compaction install,
		// inline rebuild); read it like a search would.
		e.mu.RLock()
		pending = e.mut.Pending()
		e.mu.RUnlock()
	}
	return Stats{
		Queries:         e.queries.Load(),
		Batches:         e.batchCount.Load(),
		CacheHits:       e.hits.Load(),
		CacheMisses:     e.misses.Load(),
		Inserts:         e.inserts.Load(),
		Deletes:         e.deletes.Load(),
		Epoch:           e.epoch.Load(),
		Compactions:     e.compactions.Load(),
		PendingDelta:    pending,
		Shed:            e.shed.Load(),
		Expired:         e.expired.Load(),
		Panics:          e.panics.Load(),
		DegradedQueries: e.degradedQueries.Load(),
		Backlog:         e.backlog.Load(),
		BudgetCeiling:   int(e.budgetCeiling.Load()),

		FilterSkippedNodes:  e.fltSkipNodes.Load(),
		FilterSkippedPoints: e.fltSkipPoints.Load(),
	}
}

// noteFilterStats folds one fresh search's predicate-pushdown pruning into
// the engine totals; answers replayed from the cache pass nothing here.
func (e *Engine) noteFilterStats(st core.Stats) {
	if st.FilterSkippedNodes != 0 {
		e.fltSkipNodes.Add(st.FilterSkippedNodes)
	}
	if st.FilterSkippedPoints != 0 {
		e.fltSkipPoints.Add(st.FilterSkippedPoints)
	}
}

// Drain stops intake and waits — bounded by ctx — for every call already
// inside the engine to finish (mutations through their journal wait) and the
// compaction loop to exit. It returns nil once the engine is idle (a mutable
// index then folds inline again), or ctx.Err() if the deadline expires first
// (a search stuck inside the index or a user Filter cannot hold shutdown
// hostage: the engine is abandoned, not waited on). Drain is idempotent and
// safe to call concurrently with any call; every call observes the same
// terminal state. After any Drain or Close, Search panics, and SearchCtx,
// SearchBatchCtx, Insert, Delete and Exclusive return ErrDraining.
func (e *Engine) Drain(ctx context.Context) error {
	if !e.closed.Swap(true) {
		if e.stopComp != nil {
			close(e.stopComp) // the loop finishes any in-flight cycle first
		}
		// One phantom call: its exit reports an already-idle engine, and on a
		// busy one leaves that to the last real call out.
		e.active.Add(1)
		e.exit()
	}
	select {
	case <-e.idle:
		if e.mut != nil {
			// Every call and the loop have left, so the lock is free: the
			// index folds inline again, as a standalone one does. An engine
			// whose Drain timed out queues no writer behind a stuck search.
			e.handBack.Do(func() {
				e.mu.Lock()
				defer e.mu.Unlock()
				e.mut.SetBackgroundCompaction(false)
			})
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains every call already inside the engine, waiting without bound
// (Drain with a background context). It is idempotent and may race any call.
func (e *Engine) Close() { _ = e.Drain(context.Background()) }

// Exclusive runs fn while the engine guarantees no search or mutation is
// executing against the index: on a mutable index it holds the write lock
// that searches read-lock, so fn observes (and is observed by) a fully
// settled state — the hook the snapshot path uses to serialize a Save
// against concurrent Insert/Delete. On an immutable index fn runs directly;
// a read-only fn is safe against concurrent readers, and that is the only
// kind an immutable index admits. It returns fn's error, or ErrDraining
// without running fn after Drain or Close; Drain waits for a running fn.
func (e *Engine) Exclusive(fn func() error) error {
	if err := e.enter(); err != nil {
		return err
	}
	defer e.exit()
	if e.mut != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	return fn()
}

// Shared runs fn under the read half of the mutation lock, so a read-only
// fn (an N()/IndexBytes() stats probe, say) observes a fully applied index
// state even while Insert/Delete traffic flows. On an immutable index fn
// runs directly. Like Stats it is ungated, so it works on a drained engine.
func (e *Engine) Shared(fn func()) {
	if e.mut == nil {
		fn()
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn()
}

// call is what one serving call asks of the index once its cache hits are
// answered: the options and the misses' canonical queries, packed row-major.
type call struct {
	ctx    context.Context
	opts   core.SearchOptions // normalized, ceiling applied; Cancel is installed per index call, never here
	key    optsKey            // cache projection of opts
	cached bool               // the engine has a cache and opts may use it
	canon  []float32          // miss j is canon[j*dim:(j+1)*dim]
}

// misses is where a call's answers go. It is kept apart from call because
// everything a call points to flows into the index and the cache, hence to
// the heap; the misses of a single search stay on its caller's stack.
type misses struct {
	row  []int    // miss j answers res[row[j]], sts[row[j]]
	hash []uint64 // miss j's cache hash (cached calls only)
	res  [][]core.Result
	sts  []core.Stats
}

// newCall normalizes one call's options over its n queries — defaults, the
// degradation ceiling, the cache projection; canon receives the misses.
func (e *Engine) newCall(ctx context.Context, opts core.SearchOptions, n int, canon []float32) call {
	c := call{ctx: ctx, opts: e.applyCeiling(opts.Normalized(), n), canon: canon}
	if c.cached = e.cache != nil && c.opts.Filter == nil; c.cached {
		c.key = makeOptsKey(c.opts)
	}
	return c
}

// probe answers canonical query q from the cache when the call may use it,
// counting the hit or miss; hash is where a miss installs its answer.
func (e *Engine) probe(c *call, q []float32, res *[]core.Result, st *core.Stats) (hash uint64, hit bool) {
	if !c.cached {
		return 0, false
	}
	hash = hashKey(q, c.key)
	if *res, *st, hit = e.cache.get(hash, q, c.key, e.epoch.Load()); hit {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	return hash, hit
}

// serve executes misses [lo, hi) of a call holding one worker slot. Waiting
// for the slot is the only queueing there is, so a deadline that fires there
// expired before any index work. The slot's hold time feeds the smoothed
// service time admission control divides by.
func (e *Engine) serve(c *call, m *misses, lo, hi int) error {
	select {
	case e.slots <- struct{}{}:
	case <-c.ctx.Done():
		e.expired.Add(int64(hi - lo))
		return c.ctx.Err()
	}
	start := time.Now()
	defer func() {
		<-e.slots
		e.observeService(time.Since(start) / time.Duration(hi-lo))
	}()
	// The engine.search failpoint stands in for a slow or failing index
	// (a stuck traversal, a poisoned mmap). Its delay runs inside the timed
	// section on purpose: injected latency must feed the smoothed service
	// time, so admission control reacts to a chaos-slowed engine exactly as
	// it would to a genuinely slow one.
	if faultinject.Armed() {
		if err := faultinject.Inject("engine.search"); err != nil {
			return err
		}
	}
	return e.run(c, m, lo, hi)
}

// run is the one place the engine calls the index: misses [lo, hi) of a call
// in one read-locked section (mutable indexes only), as one Search for a
// single row and one SearchBatch call for more, with the deadline's
// cancellation hook installed. A deadline that has passed by the end is the
// call's error even when every answer is exact, and no row of the call is then
// known to be exact: none is cached, and every one counts as expired.
func (e *Engine) run(c *call, m *misses, lo, hi int) error {
	dim := e.dim
	var epoch uint64
	func() {
		if e.mut != nil {
			e.mu.RLock()
			defer e.mu.RUnlock()
		}
		// Under the read lock (or with no mutator at all) the epoch cannot
		// move while the search runs, so stamping entries with it is
		// race-free.
		epoch = e.epoch.Load()
		if c.ctx.Err() != nil {
			return
		}
		// The cancellation hook lives only in this call-time copy of the
		// options: cache keys must not see transport state.
		opts := c.opts
		opts.Cancel = cancelFor(c.ctx)
		if hi-lo == 1 {
			i := m.row[lo]
			m.res[i], m.sts[i] = e.ix.Search(c.canon[lo*dim:hi*dim], opts)
			return
		}
		res, sts := e.ix.SearchBatch(&vec.Matrix{Data: c.canon[lo*dim : hi*dim], N: hi - lo, D: dim}, opts)
		for j := range res {
			m.res[m.row[lo+j]], m.sts[m.row[lo+j]] = res[j], sts[j]
		}
	}()
	if err := c.ctx.Err(); err != nil {
		e.expired.Add(int64(hi - lo))
		return err
	}
	for j := lo; j < hi; j++ {
		i := m.row[j]
		e.noteFilterStats(m.sts[i])
		if c.cached {
			e.cache.put(m.hash[j], c.canon[j*dim:(j+1)*dim], c.key, epoch, m.res[i], m.sts[i])
		}
	}
	return nil
}

// canonicalize copies q into dst rescaled to a unit normal (n is ||normal||,
// already computed at validation), so that scaled duplicates of one
// hyperplane map to identical bytes and share one cache slot. The tolerance
// band is core.UnitNormBand, shared with p2h's checkQuery, which stays
// responsible for validation at the index boundary; this copy exists purely
// for cache-key identity.
func canonicalize(dst, q []float32, n float64) []float32 {
	dst = dst[:len(q)]
	copy(dst, q)
	if core.UnitNormBand(n) {
		return dst
	}
	vec.Scale(dst, 1/n)
	return dst
}
