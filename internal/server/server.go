// Package server turns a single-query P2HNNS index into a concurrent
// query-serving engine: callers from any number of goroutines search through
// a bounded set of worker slots, are answered through a bounded result
// cache, and — when the underlying index is mutable — stay
// snapshot-consistent against concurrent inserts and deletes.
//
// The engine adds three mechanisms on top of a plain Searcher:
//
//   - Caller-runs under slots. A search executes on the goroutine that
//     submitted it, holding one of Workers slots for the index work; the
//     engine owns no queue and no goroutine of its own (bar the optional
//     compaction loop), so a panic raised by the index or a user Filter
//     unwinds into its caller by construction. A batch that arrives as a
//     batch (SearchBatchCtx) is split into min(Workers, misses) contiguous
//     chunks, each one slot and — when the index has a native batch surface
//     and the options allow the shared traversal — one SearchBatch call.
//
//   - Result caching. A query is canonicalized to its unit-normal form, so
//     scaled duplicates of the same hyperplane share one cache slot. The
//     cache key is the canonical query plus the semantically relevant
//     SearchOptions fields; entries live in a bounded LRU and are stamped
//     with the mutation epoch at which they were computed, so any insert or
//     delete invalidates every older entry without an eager sweep. Queries
//     with a Filter or Profile attached bypass the cache (a filter is an
//     arbitrary function; a profile wants fresh timings). Cache hits are
//     answered before a slot is taken.
//
//   - Snapshot-consistent mutation. When the index exposes Insert/Delete,
//     searches run under a read lock and mutations under the write lock of
//     one RWMutex, and every mutation bumps an epoch counter. A search
//     therefore always observes a fully applied state — never a
//     half-rebuilt tree — and cached results can never leak across a
//     mutation. Immutable indexes skip the lock entirely: every index in
//     this repository is safe for concurrent readers.
package server

import (
	"context"
	"errors"
	"fmt"
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
	// Dim is the raw point dimensionality; queries carry one extra offset
	// coordinate.
	Dim() int
}

// BatchSearcher is the optional native batch surface of an index
// (p2h.BatchIndex). When the served index exposes it, each chunk of a
// SearchBatchCtx call whose options are exec.Eligible is one SearchBatch
// call instead of a per-query loop, so the index's shared batched traversal
// — one arena walk and one leaf-block pass for the whole chunk — replaces
// per-query work.
type BatchSearcher interface {
	SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats)
}

// Mutator is the optional write surface of a mutable index (p2h.Dynamic).
type Mutator interface {
	Insert(p []float32) int32
	Delete(handle int32) bool
}

// AttrMutator is the optional attributed write surface of a mutable index:
// an insert that also binds a per-point attribute payload (p2h.Dynamic
// exposes it). Engines probe for it with a type assertion on the Mutator.
type AttrMutator interface {
	InsertWithAttrs(p []float32, at attr.Point) int32
}

// Journal is a durability sink for applied mutations. The engine appends
// every applied Insert/Delete — under the same lock that serialized the
// mutation, so the log order is the apply order — and reports the append
// error to the mutating caller instead of acknowledging: an acknowledged
// mutation is always in the journal. p2h's write-ahead log implements it.
type Journal interface {
	// AppendInsert logs an applied insert: the handle the index assigned
	// and the raw point as submitted.
	AppendInsert(handle int32, p []float32) error
	// AppendDelete logs an applied delete of a previously live handle.
	AppendDelete(handle int32) error
}

// AttrJournal is the optional attributed append surface of a Journal: an
// insert record that carries the point's attribute payload, so a replay
// restores both. A Journal without it rejects attributed inserts rather
// than silently logging them payload-less.
type AttrJournal interface {
	AppendInsertAttrs(handle int32, p []float32, at attr.Point) error
}

// Compactor is the optional background-compaction surface of a mutable
// index (p2h.Dynamic). When Config.BackgroundCompaction is set and the
// Mutator exposes it, mutations stop folding the index's delta inline;
// instead the engine watches CompactionNeeded after every mutation and runs
// capture/build/install cycles on its own goroutine, holding the mutation
// lock only for the capture and install steps — searches proceed against
// the old tree for the whole build.
type Compactor interface {
	// SetBackgroundCompaction hands delta folding to the engine (true) or
	// back to inline rebuilds (false).
	SetBackgroundCompaction(on bool)
	// CompactionNeeded reports whether the delta has outgrown the index's
	// compaction threshold. Called under the mutation lock.
	CompactionNeeded() bool
	// BeginCompaction captures the rebuild under the mutation lock and
	// returns a build closure to run unlocked plus an install closure to
	// run under the lock again; both nil when there is nothing to fold.
	BeginCompaction() (build, install func())
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
	// BackgroundCompaction moves delta folding off the mutation path when
	// the index exposes the Compactor surface; ignored otherwise.
	BackgroundCompaction bool
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

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	Queries     int64  // searches served
	Batches     int64  // serving calls, one per Search/SearchCtx/SearchBatchCtx: Queries/Batches is the mean request size
	CacheHits   int64  // searches answered from the cache
	CacheMisses int64  // cacheable searches that ran the index
	Inserts     int64  // successful Insert calls
	Deletes     int64  // Delete calls that removed a live handle
	Epoch       uint64 // mutation epoch (0 until the first mutation)
	Compactions int64  // background compaction cycles installed
	// PendingDelta is the mutable index's un-folded delta (insert buffer +
	// tombstones) at snapshot time — what searches pay for linearly until
	// the next rebuild or compaction. Zero for immutable indexes.
	PendingDelta int

	// Overload counters (see SearchCtx and SetBudgetCeiling).

	Shed            int64 // queries rejected by admission control
	Expired         int64 // queries whose deadline fired before index work ran
	Panics          int64 // panics raised while serving, returned to their caller
	DegradedQueries int64 // searches whose budget the degradation ceiling clamped
	Backlog         int64 // admitted-but-unfinished queries right now
	BudgetCeiling   int   // current degradation cap (zero: serving exact)

	// Predicate-pushdown totals, accumulated over every search the index
	// actually ran (cache hits replay an answer without re-pruning): whole
	// subtrees the per-node attribute summaries proved could not match, and
	// the points under them.
	FilterSkippedNodes  int64
	FilterSkippedPoints int64
}

// Engine is the concurrent serving layer. All methods are safe for
// concurrent use.
type Engine struct {
	ix      Searcher
	batchIx BatchSearcher // non-nil when ix has a native batched path
	mut     Mutator       // nil for immutable indexes
	cfg     Config
	dim     int // query length, ix.Dim()+1

	mu    sync.RWMutex  // searches read-lock, mutations write-lock (mut != nil only)
	epoch atomic.Uint64 // bumped by every applied mutation
	cache *lru          // nil when disabled

	journal Journal        // nil when mutations need no durability log
	durable durableJournal // journal's group-commit surface, when offered
	comp    Compactor      // nil unless background compaction is on

	slots     chan struct{} // one token per executing search or batch chunk (cap Workers)
	closed    atomic.Bool   // set by the first Drain: intake stopped
	active    atomic.Int64  // serving calls in flight, plus the compaction loop
	idle      chan struct{} // closed once closed is set and active reached zero
	idleOnce  sync.Once
	compactCh chan struct{} // wake signal for the compaction loop (cap 1)
	stopComp  chan struct{} // closed by the first Drain

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

// durableJournal is the optional group-commit surface of a Journal: after a
// mutation's append succeeded under the lock, the engine waits for
// durability outside it, so concurrent mutations share one fsync.
type durableJournal interface {
	WaitDurable() error
}

// New builds an engine over ix. Pass the index's mutation surface as mut (or
// nil for read-only serving); when non-nil, the engine serializes
// Insert/Delete against searches and invalidates the cache on every applied
// mutation.
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
	e.batchIx, _ = ix.(BatchSearcher)
	if cfg.CacheEntries > 0 {
		e.cache = newLRU(cfg.CacheEntries)
	}
	if mut != nil {
		e.journal = cfg.Journal
		e.durable, _ = cfg.Journal.(durableJournal)
		if c, ok := mut.(Compactor); ok && cfg.BackgroundCompaction {
			e.comp = c
			c.SetBackgroundCompaction(true)
			e.compactCh = make(chan struct{}, 1)
			e.stopComp = make(chan struct{})
			e.active.Add(1)
			go e.compactLoop()
		}
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
// timing. Each chunk takes one worker slot; it is one SearchBatch call when
// the index has the batch surface and exec.Eligible(opts) holds, else a
// per-row Search with the deadline's cancellation hook installed. The error
// is all-or-nothing: a shed, drained or expired batch returns no results.
// Malformed rows panic before anything runs, exactly like Search. A Profile
// is honored by running the misses as one chunk.
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
	parts := e.cfg.Workers
	if c.opts.Profile != nil {
		parts = 1 // concurrent chunks cannot share one per-phase timer
	}
	if err := exec.ForChunks(len(m.row), parts, func(lo, hi int) error { return e.serve(&c, m, lo, hi) }); err != nil {
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

// begin opens a serving call of n queries: the intake gate, the
// expired-at-the-door check, admission (shed calls only) and the backlog.
// Every begin that returns nil is closed by end. The active count goes up
// before closed is read and Drain sets closed before it reads the count, so
// a call either sees the drain or is seen by it.
func (e *Engine) begin(ctx context.Context, n int, shed bool) (time.Time, error) {
	e.active.Add(1)
	var err error
	switch {
	case e.closed.Load():
		err = ErrDraining
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

// exit retires one serving call (or the compaction loop); the last one out
// after Drain reports the engine idle.
func (e *Engine) exit() {
	if e.active.Add(-1) == 0 && e.closed.Load() {
		e.idleOnce.Do(func() { close(e.idle) })
	}
}

// Insert adds a point through the mutation surface, serialized against
// searches. It returns the stable handle assigned by the index. With a
// Journal configured, a non-nil error means the point is in memory but its
// log append failed — the caller must not acknowledge it as durable (and
// the journal refuses further appends until reset, so no later mutation can
// be logged over the gap).
func (e *Engine) Insert(p []float32) (int32, error) {
	if e.mut == nil {
		return 0, ErrImmutable
	}
	h, err := func() (int32, error) {
		e.mu.Lock()
		defer e.mu.Unlock() // deferred so a panicking mutator cannot wedge the lock
		h := e.mut.Insert(p)
		e.epoch.Add(1)
		if e.journal != nil {
			if err := e.journal.AppendInsert(h, p); err != nil {
				return h, err
			}
		}
		e.inserts.Add(1)
		e.wakeCompactor()
		return h, nil
	}()
	if err == nil && e.durable != nil {
		// Wait for the journal's group commit outside the mutation lock:
		// concurrent mutations (and searches) proceed while this record's
		// fsync is in flight, and every mutation that appended before the
		// flush lands rides the same one.
		err = e.durable.WaitDurable()
	}
	return h, err
}

// InsertWithAttrs adds a point with an attribute payload through the
// mutation surface, serialized against searches. It requires the index's
// mutator to expose AttrMutator and, when a Journal is configured, the
// journal to expose AttrJournal — otherwise ErrImmutable respectively an
// error, never a silently dropped payload. Durability semantics match
// Insert.
func (e *Engine) InsertWithAttrs(p []float32, at attr.Point) (int32, error) {
	if e.mut == nil {
		return 0, ErrImmutable
	}
	am, ok := e.mut.(AttrMutator)
	if !ok {
		return 0, ErrImmutable
	}
	var aj AttrJournal
	if e.journal != nil {
		if aj, ok = e.journal.(AttrJournal); !ok {
			return 0, fmt.Errorf("server: journal %T cannot log attributed inserts", e.journal)
		}
	}
	h, err := func() (int32, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		h := am.InsertWithAttrs(p, at)
		e.epoch.Add(1)
		if aj != nil {
			if err := aj.AppendInsertAttrs(h, p, at); err != nil {
				return h, err
			}
		}
		e.inserts.Add(1)
		e.wakeCompactor()
		return h, nil
	}()
	if err == nil && e.durable != nil {
		err = e.durable.WaitDurable()
	}
	return h, err
}

// Delete removes a handle through the mutation surface, serialized against
// searches. It reports whether the handle was live. Journal errors behave
// as in Insert.
func (e *Engine) Delete(handle int32) (bool, error) {
	if e.mut == nil {
		return false, ErrImmutable
	}
	ok, err := func() (bool, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		ok := e.mut.Delete(handle)
		if ok {
			e.epoch.Add(1)
			if e.journal != nil {
				if err := e.journal.AppendDelete(handle); err != nil {
					return true, err
				}
			}
			e.deletes.Add(1)
			e.wakeCompactor()
		}
		return ok, nil
	}()
	if err == nil && ok && e.durable != nil {
		err = e.durable.WaitDurable()
	}
	return ok, err
}

// wakeCompactor nudges the compaction loop when a mutation pushed the delta
// over the threshold. Called with the write lock held; the send never
// blocks (the channel holds one pending wake).
func (e *Engine) wakeCompactor() {
	if e.comp == nil || !e.comp.CompactionNeeded() {
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
// (see Compactor); a cycle therefore never blocks the very mutations that
// outgrow the threshold again, which is why the loop re-checks and chains.
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
			if e.comp.CompactionNeeded() {
				build, install = e.comp.BeginCompaction()
			}
			e.mu.Unlock()
			if build == nil {
				break
			}
			build()
			e.mu.Lock()
			install()
			e.mu.Unlock()
			// No epoch bump: a compaction changes the tree, not the answer
			// set, so cached results stay exact.
			e.compactions.Add(1)
		}
	}
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	pending := 0
	if p, ok := e.mut.(interface{ Pending() int }); ok {
		// The delta shrinks under the mutation lock (compaction install,
		// inline rebuild); read it like a search would.
		e.mu.RLock()
		pending = p.Pending()
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
// inside the engine to finish and the compaction loop to exit. It returns
// nil once the engine is idle, or ctx.Err() if the deadline expires first (a
// search stuck inside the index or a user Filter cannot hold shutdown
// hostage: the engine is abandoned, not waited on). Drain is idempotent and
// safe to call concurrently; every call observes the same terminal state,
// and after any Drain or Close, Search panics and SearchCtx returns
// ErrDraining.
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
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains every call already inside the engine, waiting without bound
// (Drain with a background context). It is idempotent; searching after
// Close panics.
func (e *Engine) Close() { _ = e.Drain(context.Background()) }

// Exclusive runs fn while the engine guarantees no search or mutation is
// executing against the index: on a mutable index it holds the write lock
// that searches read-lock, so fn observes (and is observed by) a fully
// settled state — the hook the snapshot path uses to serialize a Save
// against concurrent Insert/Delete. On an immutable index fn runs directly;
// a read-only fn is safe against concurrent readers, and that is the only
// kind an immutable index admits.
func (e *Engine) Exclusive(fn func()) {
	if e.mut == nil {
		fn()
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}

// Shared runs fn under the read half of the mutation lock, so a read-only
// fn (an N()/IndexBytes() stats probe, say) observes a fully applied index
// state even while Insert/Delete traffic flows. On an immutable index fn
// runs directly.
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
	opts   core.SearchOptions // normalized, ceiling applied; Cancel is installed per row, never here
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
	if c.cached = e.cache != nil && c.opts.Filter == nil && c.opts.Profile == nil; c.cached {
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
// in one read-locked section (mutable indexes only), as a single SearchBatch
// call when the index has the batch surface and the options allow the shared
// traversal, else row by row with the deadline's cancellation hook installed.
// Rows whose turn comes after the deadline are never run, a row the deadline
// truncated is never cached, and a deadline that has passed by the end is
// the call's error even when every answer is exact.
func (e *Engine) run(c *call, m *misses, lo, hi int) error {
	dim := e.dim
	var epoch uint64
	done := lo // misses [lo, done) hold complete answers
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
			e.expired.Add(int64(hi - lo))
			return
		}
		if e.batchIx != nil && hi-lo > 1 && exec.Eligible(c.opts) {
			// The shared traversal cannot split one caller's deadline out of
			// the arena walk, so it runs to completion: exact and cacheable.
			res, sts := e.batchIx.SearchBatch(&vec.Matrix{Data: c.canon[lo*dim : hi*dim], N: hi - lo, D: dim}, c.opts)
			for j := range res {
				m.res[m.row[lo+j]], m.sts[m.row[lo+j]] = res[j], sts[j]
			}
			done = hi
			return
		}
		// The cancellation hook lives only in this call-time copy of the
		// options: cache keys and Eligible must not see transport state.
		opts := c.opts
		opts.Cancel = cancelFor(c.ctx)
		for ; done < hi; done++ {
			i := m.row[done]
			m.res[i], m.sts[i] = e.ix.Search(c.canon[done*dim:(done+1)*dim], opts)
			if c.ctx.Err() != nil {
				// Truncated, not exact: it must never be served to a future
				// caller as the real answer.
				e.expired.Add(int64(hi - done - 1))
				return
			}
		}
	}()
	for j := lo; j < done; j++ {
		i := m.row[j]
		e.noteFilterStats(m.sts[i])
		if c.cached {
			e.cache.put(m.hash[j], c.canon[j*dim:(j+1)*dim], c.key, epoch, m.res[i], m.sts[i])
		}
	}
	return c.ctx.Err()
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
