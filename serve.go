package p2h

import (
	"context"
	"time"

	"p2h/internal/server"
)

// ServerOptions configures NewServer; zero values select the documented
// defaults.
type ServerOptions struct {
	// Workers is the number of slots index work runs under — the searches
	// (or batch chunks) executing at once (zero: GOMAXPROCS).
	Workers int
	// CacheEntries bounds the result cache (zero: 1024; negative: cache
	// disabled).
	CacheEntries int
	// MaxQueue is the static ceiling on queries admitted through SearchCtx
	// and SearchBatchCtx but not yet finished (zero: 64*Workers; negative:
	// admission control disabled). The blocking Search path ignores it.
	MaxQueue int
	// MaxQueueDelay bounds the queueing delay admission control will accept
	// (zero: 50ms); when the backlog's expected drain time exceeds it, the
	// Ctx entries shed new arrivals with an *OverloadError.
	MaxQueueDelay time.Duration
	// WAL, when non-nil, makes mutations durable: every applied
	// Insert/Delete is appended to the attached write-ahead log before the
	// call returns, and Snapshot truncates the log atomically with the
	// saved container. Attach it to the same Dynamic index with AttachWAL
	// (which also replays any pending records) before starting the server.
	WAL *WAL
	// Deprecated: ignored. A server always folds a Dynamic index's delta
	// on a background goroutine of its own.
	BackgroundCompaction bool
}

// ServerStats is a point-in-time snapshot of a Server's counters.
type ServerStats = server.Stats

// LatencySnapshot is a point-in-time copy of a Server's completion-latency
// histogram; subtract two snapshots and ask the window for a Quantile — the
// sampling loop an SLO controller runs.
type LatencySnapshot = server.LatencySnapshot

// OverloadError reports a search shed by admission control; it carries the
// backlog, the limit it exceeded, and a suggested retry delay. Matches
// ErrOverloaded under errors.Is.
type OverloadError = server.OverloadError

// ErrImmutable is returned by Server.Insert and Server.Delete when the
// wrapped index has no mutation surface (only Dynamic has one).
var ErrImmutable = server.ErrImmutable

// ErrOverloaded is the errors.Is target for admission rejections from
// Server.SearchCtx and Server.SearchBatchCtx.
var ErrOverloaded = server.ErrOverloaded

// ErrDraining is returned by Server.SearchCtx, SearchBatchCtx, Insert,
// InsertWithAttrs, Delete and Snapshot once Drain or Close has stopped intake
// (where the blocking Search would panic).
var ErrDraining = server.ErrDraining

// Server is a concurrent query-serving layer over any Index: callers from
// any number of goroutines search on their own goroutine under a bounded
// set of worker slots, are answered through a bounded LRU cache of
// normalized queries, and — when the index is a Dynamic — stay
// snapshot-consistent against concurrent Insert, InsertWithAttrs and Delete
// calls, which invalidate the cache through a mutation epoch. Every
// mutation takes one path: applied to the index under the mutation lock,
// appended to the WAL when one is attached, and acknowledged once durable.
//
// All methods are safe for concurrent use, Drain and Close included: Drain
// waits for the calls inside, and a call after it returns ErrDraining.
type Server struct {
	engine *server.Engine
	ix     Index
	wal    *WAL // nil unless ServerOptions.WAL attached one
}

// mutator is the engine's write surface over a Dynamic (server.Mutator):
// its Insert takes the payload and returns a refused one as an error.
type mutator struct{ *Dynamic }

func (m mutator) Insert(p []float32, at PointAttrs) (int32, error) { return m.insert(p, at) }

// NewServer starts a serving layer over ix. If ix is a Dynamic,
// Server.Insert, InsertWithAttrs and Delete route through it with snapshot
// consistency, and the server folds its delta on a background goroutine:
// no Insert or Delete rebuilds the tree inline, and the mutation lock is held
// only to capture the rebuild and to install it. Otherwise they return
// ErrImmutable.
func NewServer(ix Index, opts ServerOptions) *Server {
	var mut server.Mutator
	if d, ok := ix.(*Dynamic); ok {
		mut = mutator{d}
	}
	cfg := server.Config{
		Workers:       opts.Workers,
		CacheEntries:  opts.CacheEntries,
		MaxQueue:      opts.MaxQueue,
		MaxQueueDelay: opts.MaxQueueDelay,
	}
	if opts.WAL != nil {
		cfg.Journal = opts.WAL.wal
	}
	return &Server{
		engine: server.New(ix, mut, cfg),
		ix:     ix,
		wal:    opts.WAL,
	}
}

// Search answers one top-k hyperplane query on the calling goroutine,
// waiting for a worker slot when all are busy. Semantics match Index.Search
// exactly (including panics on malformed queries); cached answers are
// bit-identical to what the index would return.
func (s *Server) Search(q []float32, opts SearchOptions) ([]Result, Stats) {
	return s.engine.Search(q, opts)
}

// SearchCtx is the deadline-aware, admission-controlled form of Search — the
// entry the network serving layer uses. A request is shed with an
// *OverloadError (errors.Is ErrOverloaded) when the backlog exceeds what the
// worker slots can drain within MaxQueueDelay; one whose ctx expires while
// it waits for a slot gives up before any index work with ctx.Err(); one
// expiring mid-search abandons the remaining traversal at the next
// leaf-block boundary and returns ctx.Err() alongside the partial results
// found so far. A drained server returns ErrDraining instead of panicking.
// Malformed queries still panic, exactly like Search.
func (s *Server) SearchCtx(ctx context.Context, q []float32, opts SearchOptions) ([]Result, Stats, error) {
	return s.engine.SearchCtx(ctx, q, opts)
}

// SearchBatchCtx answers one top-k query per row of queries under one
// deadline, returning results and stats in row order — the batch form of
// SearchCtx. The batch is admitted or shed as a unit; rows the cache cannot
// answer are split into min(Workers, misses) contiguous chunks, each one
// Index.SearchBatch call at any budget (a chunk of one row is one Search).
// The deadline is honored mid-traversal, and once it has passed nothing the
// call computed is cached. Results are bitwise the per-row Search answers;
// the error is all-or-nothing.
// Malformed rows panic, exactly like Search.
func (s *Server) SearchBatchCtx(ctx context.Context, queries [][]float32, opts SearchOptions) ([][]Result, []Stats, error) {
	return s.engine.SearchBatchCtx(ctx, queries, opts)
}

// SetBudgetCeiling caps the candidate budget of every subsequently submitted
// search (zero removes the cap) — the degradation knob an SLO controller
// steps down under latency breach and restores as load recedes. See
// ServerStats.BudgetCeiling and DegradedQueries for observability.
func (s *Server) SetBudgetCeiling(ceiling int) { s.engine.SetBudgetCeiling(ceiling) }

// BudgetCeiling returns the current degradation cap (zero when serving
// exact).
func (s *Server) BudgetCeiling() int { return s.engine.BudgetCeiling() }

// Latency snapshots the server's completion-latency histogram (slot wait
// plus service, per serving call).
func (s *Server) Latency() LatencySnapshot { return s.engine.Latency() }

// Insert adds a point without attributes; see InsertWithAttrs.
func (s *Server) Insert(p []float32) (int32, error) {
	return s.engine.Insert(p, PointAttrs{})
}

// InsertWithAttrs adds a point with an attribute payload (the zero value:
// none) through the underlying Dynamic index, serialized against in-flight
// searches, and returns its stable handle. With a WAL attached the payload
// is logged with the vector before the call returns, so a replay restores
// both. A payload no container or log could carry — a tag or field name over
// 4 096 bytes, more than 65 535 tags or 4 096 fields, an encoding over 1 MiB,
// a field that is an int here and a float here or in an earlier payload — is
// refused with an error before the index or the log changes.
func (s *Server) InsertWithAttrs(p []float32, at PointAttrs) (int32, error) {
	return s.engine.Insert(p, at)
}

// Delete removes a handle through the underlying Dynamic index, serialized
// against in-flight searches. It reports whether the handle was live.
func (s *Server) Delete(handle int32) (bool, error) {
	return s.engine.Delete(handle)
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats { return s.engine.Stats() }

// Index returns the index the server wraps. The index is shared with every
// in-flight search; callers must treat it as read-only and route mutations
// through Server.Insert and Server.Delete. On a mutable index, calling even
// read methods (N, IndexBytes, Search) directly is racy against concurrent
// Insert/Delete — use Describe for a synchronized snapshot.
func (s *Server) Index() Index { return s.ix }

// Describe reads the index's current size and memory footprint under the
// same lock that serializes mutations, so it is safe to call while
// Insert/Delete traffic flows (Index().N() directly is not, on a mutable
// index).
func (s *Server) Describe() (n int, indexBytes int64) {
	s.engine.Shared(func() {
		n = s.ix.N()
		indexBytes = s.ix.IndexBytes()
	})
	return n, indexBytes
}

// Snapshot atomically persists the wrapped index to path in the
// self-describing container format through SaveFile: the bytes are written
// to a temporary file in the destination directory, fsynced, and renamed into
// place only on success, so a reader never observes a partial file and a
// failed save leaves any existing file untouched. On a mutable index the whole
// save-sync-rename sequence runs with mutations excluded (in-flight
// searches finish first), so the snapshot is a consistent cut. With a
// write-ahead log attached the log is truncated under the same exclusion,
// after the rename: every logged record is inside the renamed container
// before it leaves the log, so a crash at any instant leaves either the old
// container plus the full log, or the new container plus a log whose
// leftover records replay as no-ops. It returns the size of the file it
// wrote. After Drain or Close it returns ErrDraining and writes nothing.
//
// Like SaveFile, Snapshot leaves the index serving from the file it wrote —
// unless the index is mutable and served without a log. Such a snapshot is a
// copy nothing reopens (cmd/p2hd streams one from a spool file it then
// deletes), so the index keeps its trees on the heap.
func (s *Server) Snapshot(path string) (int64, error) {
	_, mutable := s.ix.(*Dynamic)
	var size int64
	err := s.engine.Exclusive(func() (err error) {
		size, err = saveFile(path, s.ix, s.wal != nil || !mutable)
		if err == nil && s.wal != nil {
			err = s.wal.truncate()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return size, nil
}

// WAL returns the attached write-ahead log, or nil when the server runs
// without one.
func (s *Server) WAL() *WAL { return s.wal }

// Hold takes a place in the server's intake gate and returns its release, to
// run exactly once: Drain and Close wait for it as for a call in flight, and calls made while it
// is held are served although a drain has begun — what a daemon's handler
// needs that found the server just before a hot reload retired it. After the
// server has drained, Hold returns ErrDraining.
func (s *Server) Hold() (release func(), err error) { return s.engine.Hold() }

// Drain stops intake and waits — bounded by ctx — for every search, mutation
// (through its WAL durability wait) and snapshot already inside the server.
// It returns nil once the server is idle, or ctx.Err() if the deadline
// expires first; a search stuck inside the index or a user Filter cannot hold
// shutdown hostage. Drain is idempotent and may race any call. After any
// Drain or Close, once no place Hold took is held, Search panics and every
// other call that would touch the index or the WAL returns ErrDraining, so
// once Drain has returned nil an attached WAL can be closed. Stats, Describe and Latency keep answering.
func (s *Server) Drain(ctx context.Context) error { return s.engine.Drain(ctx) }

// Close is Drain without a bound. It is idempotent and may race any call.
func (s *Server) Close() { s.engine.Close() }
