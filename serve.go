package p2h

import (
	"context"
	"os"
	"path/filepath"
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
	// BackgroundCompaction moves the Dynamic index's delta folding off the
	// mutation path: instead of rebuilding inline inside the unlucky
	// Insert/Delete that crosses the threshold — stalling every search for
	// the whole build — the server rebuilds on a background goroutine and
	// hot-swaps the tree, holding the mutation lock only for the capture
	// and install steps. Ignored for indexes without the compaction
	// surface.
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

// ErrDraining is returned by Server.SearchCtx and Server.SearchBatchCtx once
// Drain or Close has stopped intake (where the blocking Search would panic).
var ErrDraining = server.ErrDraining

// Server is a concurrent query-serving layer over any Index: callers from
// any number of goroutines search on their own goroutine under a bounded
// set of worker slots, are answered through a bounded LRU cache of
// normalized queries, and — when the index is a Dynamic — stay
// snapshot-consistent against concurrent Insert and Delete calls, which
// invalidate the cache through a mutation epoch.
//
// All methods are safe for concurrent use. Close drains in-flight queries;
// searching after Close panics.
type Server struct {
	engine *server.Engine
	ix     Index
	wal    *WAL // nil unless ServerOptions.WAL attached one
}

// mutator matches the Insert/Delete surface of Dynamic (and of any
// user-provided Index exposing the same mutation methods).
type mutator interface {
	Insert(p []float32) int32
	Delete(handle int32) bool
}

// NewServer starts a serving layer over ix. If ix exposes the Dynamic
// mutation surface, Server.Insert and Server.Delete route through it with
// snapshot consistency; otherwise they return ErrImmutable.
func NewServer(ix Index, opts ServerOptions) *Server {
	var mut server.Mutator
	if m, ok := ix.(mutator); ok {
		mut = m
	}
	cfg := server.Config{
		Workers:              opts.Workers,
		CacheEntries:         opts.CacheEntries,
		MaxQueue:             opts.MaxQueue,
		MaxQueueDelay:        opts.MaxQueueDelay,
		BackgroundCompaction: opts.BackgroundCompaction,
	}
	if opts.WAL != nil {
		cfg.Journal = opts.WAL
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
// shared SearchBatch traversal when the index is a BatchIndex and the
// options are exact and unfiltered, else a per-row Search that honors the
// deadline mid-traversal. Results are bitwise the per-row Search answers;
// the error is all-or-nothing. Malformed rows panic, exactly like Search.
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

// Insert adds a point through the underlying Dynamic index, serialized
// against in-flight searches, and returns its stable handle.
func (s *Server) Insert(p []float32) (int32, error) {
	return s.engine.Insert(p)
}

// InsertWithAttrs adds a point with an attribute payload through the
// underlying Dynamic index, serialized against in-flight searches, and
// returns its stable handle. With a WAL attached the payload is logged with
// the vector, so a replay restores both.
func (s *Server) InsertWithAttrs(p []float32, at PointAttrs) (int32, error) {
	return s.engine.InsertWithAttrs(p, at)
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
// self-describing container format: the bytes are written to a temporary
// file in the destination directory, fsynced, and renamed into place only
// on success, so a reader never observes a partial file and a failed save
// leaves any existing file untouched. On a mutable index the whole
// save-sync-rename sequence runs with mutations excluded (in-flight
// searches finish first), so the snapshot is a consistent cut. With a
// write-ahead log attached the log is truncated under the same exclusion,
// after the rename: every logged record is inside the renamed container
// before it leaves the log, so a crash at any instant leaves either the old
// container plus the full log, or the new container plus a log whose
// leftover records replay as no-ops. It returns the snapshot size in bytes.
func (s *Server) Snapshot(path string) (int64, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	var saveErr error
	s.engine.Exclusive(func() {
		saveErr = Save(f, s.ix)
		if saveErr == nil {
			saveErr = f.Sync()
		}
		if cerr := f.Close(); saveErr == nil {
			saveErr = cerr
		}
		if saveErr == nil {
			saveErr = os.Rename(tmp, path)
		}
		if saveErr == nil && s.wal != nil {
			saveErr = s.wal.truncate()
		}
	})
	if saveErr != nil {
		os.Remove(tmp)
		return 0, saveErr
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// WAL returns the attached write-ahead log, or nil when the server runs
// without one.
func (s *Server) WAL() *WAL { return s.wal }

// Drain stops intake and waits — bounded by ctx — for every search already
// inside the server to finish. It returns nil once the server is idle, or
// ctx.Err() if the deadline expires first; a search stuck inside the index
// or a user Filter cannot hold shutdown hostage. Drain is idempotent and
// safe to call concurrently; searching after any Drain or Close panics
// (SearchCtx and SearchBatchCtx return ErrDraining).
func (s *Server) Drain(ctx context.Context) error { return s.engine.Drain(ctx) }

// Close drains every search already inside the server, waiting
// without bound (Drain with a background context). It is idempotent; it must
// not race new Search/Insert/Delete calls.
func (s *Server) Close() { s.engine.Close() }
