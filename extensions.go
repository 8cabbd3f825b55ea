package p2h

import (
	"fmt"
	"runtime"

	"p2h/internal/dynamic"
	"p2h/internal/exec"
	"p2h/internal/shard"
)

// Sharded is a parallel BC-Tree index, what New returns for KindSharded: the
// data is partitioned into compact shards (the paper's Section III-A(4)
// scalability observation), one BC-Tree per shard, and queries fan out over
// goroutines with an exact merge. SearchOptions.Profile sums the phases of
// every shard's search, so on more than one worker it can exceed wall time.
type Sharded struct {
	handle
	index *shard.Index
}

// ShardPlan returns the row partition a Sharded build over data with this
// spec uses: one slice of data row indices per shard, in shard order. It is
// deterministic in spec.Seed and byte-for-byte the partition New(data, spec)
// with Kind KindSharded produces, so a cluster deployment can split the data
// set across member daemons — shard i served as a KindBCTree index built
// over data.SubsetRows(plan[i]) with Seed spec.Seed+int64(i)+1 — and a
// scatter-gather merge over those members reproduces the in-process Sharded
// results exactly, up to the order of ties: Sharded orders equal distances by
// global id, as every kind does, while a router over plain member trees still
// breaks a tie by member-local id — the same order only where plan[i]
// ascends. Spec fields other than Shards, LeafSize and Seed do not affect the
// plan. It panics on empty data.
func ShardPlan(data *Matrix, spec Spec) [][]int32 {
	return shard.Plan(data.AppendOnes(), shard.Config{
		Shards:   spec.Shards,
		LeafSize: spec.LeafSize,
		Seed:     spec.Seed,
		Workers:  spec.Workers,
	})
}

// Shards returns the number of shard trees.
func (t *Sharded) Shards() int { return t.index.Shards() }

// Dynamic is a mutable P2HNNS index, what New returns for KindDynamic: a
// BC-Tree snapshot plus an insert buffer, with one liveness bit per handle
// that a delete clears, folded into a fresh snapshot once the delta outgrows
// Spec.CompactFraction of the live set. Built over data it is bulk-loaded and the
// handles are the row indices; built over nil with Spec.Dim set it starts
// empty. Results carry stable handles assigned by Insert and
// InsertWithAttrs, which take one insert path with the payload rule in it;
// N counts the live points. Not safe for concurrent mutation: serve it
// through a Server for that, and for a write-ahead log.
type Dynamic struct {
	handle
	index *dynamic.Index
}

// Insert adds a point without attributes and returns its stable handle.
func (t *Dynamic) Insert(p []float32) int32 { return t.InsertWithAttrs(p, PointAttrs{}) }

// InsertWithAttrs adds a point with an attribute payload (the zero value:
// none) and returns its stable handle. The index keeps the payload (callers
// must not mutate it); searches with SearchOptions.Pred evaluate it per
// handle. Like a point of the wrong dimension, a payload no container or log
// could carry panics, before the index changes; Server.InsertWithAttrs
// returns that refusal as an error instead.
func (t *Dynamic) InsertWithAttrs(p []float32, at PointAttrs) int32 {
	h, err := t.insert(p, at)
	if err != nil {
		panic("p2h: " + err.Error())
	}
	return h
}

// insert is the one insert path — Insert, InsertWithAttrs, the server's
// mutator and the log replay all take it.
func (t *Dynamic) insert(p []float32, at PointAttrs) (int32, error) {
	return t.index.Insert(liftPoint(p, t.raw), at)
}

// Delete removes a handle; it reports whether the handle was live.
func (t *Dynamic) Delete(handle int32) bool { return t.index.Delete(handle) }

// Handles returns the number of handles ever issued, including deleted
// ones: the next Insert returns exactly Handles(). The write-ahead log uses
// it as the replay boundary between snapshot contents and logged mutations.
func (t *Dynamic) Handles() int { return t.index.Handles() }

// Pending reports the delta queries currently pay for beyond the tree:
// rows inserted since the last rebuild (scanned exhaustively per query; one
// deleted since still counts, its vector stays until that rebuild) plus tree
// tombstones (filtered during traversal). Rebuilds and compactions drive it
// back to zero and release the deleted vectors.
func (t *Dynamic) Pending() int { return t.index.Pending() }

// SetBackgroundCompaction hands delta folding to a serving engine (true) or
// back to inline rebuilds inside Insert/Delete (false, the default).
// NewServer flips it when ServerOptions.BackgroundCompaction is set.
func (t *Dynamic) SetBackgroundCompaction(on bool) { t.index.SetBackgroundCompaction(on) }

// CompactionNeeded reports whether the delta (rows inserted since the last
// rebuild + tombstones) has outgrown the fold threshold,
// Spec.CompactFraction of the live set.
func (t *Dynamic) CompactionNeeded() bool { return t.index.CompactionNeeded() }

// BeginCompaction captures a background rebuild of the delta: build runs
// without any lock (searches and mutations proceed concurrently), install
// swaps the fresh tree in and reconciles mutations that raced the build.
// Both closures are nil when there is nothing to fold. The caller must hold
// whatever lock serializes mutations around BeginCompaction and install —
// the serving engine drives this; direct users of a bare Dynamic can call
// Compact instead.
func (t *Dynamic) BeginCompaction() (build, install func()) {
	c := t.index.BeginCompaction()
	if c == nil {
		return nil, nil
	}
	cfg := t.index.Configuration()
	return func() { c.Build(cfg) }, func() { t.index.Install(c) }
}

// Compact runs one capture/build/install compaction cycle inline and
// reports whether there was anything to fold.
func (t *Dynamic) Compact() bool { return t.index.Compact() }

// SearchBatch answers many hyperplane queries on any index, using at most
// workers goroutines (zero selects GOMAXPROCS). Results are returned in
// query order and are identical to per-query Search calls.
//
// The queries are split into at most workers contiguous sub-batches, each one
// Index.SearchBatch call: for the trees one arena walk and one pass over each
// visited leaf block per sub-batch instead of per query, for the scan one pass
// over the data, for the kinds without a batched path of their own a loop of
// Search. Every index in this library is safe for concurrent readers. A panic
// in any worker (a zero-normal row, say) is re-raised in the caller.
//
// SearchOptions.Profile is filled by every kind on any number of workers and
// never changes what the batch does: each phase sums the time of every
// goroutine that served the batch, so on several workers it can exceed wall
// time.
func SearchBatch(ix Index, queries *Matrix, opts SearchOptions, workers int) [][]Result {
	if queries.D != ix.Dim()+1 {
		panic(fmt.Sprintf("p2h: %v: batch queries have dimension %d, want %d",
			ErrDimMismatch, queries.D, ix.Dim()+1))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > queries.N {
		workers = queries.N
	}
	out := make([][]Result, queries.N)
	if queries.N == 0 {
		return out
	}
	// Sharded parallelizes internally (bounded by its own Workers); splitting
	// its batch here would both oversubscribe the CPU (workers × shard
	// workers goroutines) and walk every shard tree once per sub-batch
	// instead of once per batch. But that routing only wins when the shard
	// trees' shared walk engages (an exact batch, whatever its Filter or
	// Pred) and the shard fan-out offers comparable parallelism; otherwise —
	// budgeted batches, or fewer shards than workers — the worker split below
	// keeps the caller's parallelism.
	if sh, sharded := ix.(*Sharded); workers <= 1 || (sharded && opts.Budget <= 0 && sh.Shards() >= workers) {
		res, _ := ix.SearchBatch(queries, opts)
		return res
	}
	_ = exec.ForChunks(queries.N, workers, func(lo, hi int) error {
		sub := &Matrix{
			Data: queries.Data[lo*queries.D : hi*queries.D],
			N:    hi - lo,
			D:    queries.D,
		}
		res, _ := ix.SearchBatch(sub, opts)
		copy(out[lo:hi], res)
		return nil // the chunks never fail
	})
	return out
}

// TuneBudget finds the smallest candidate budget whose mean recall over the
// sample queries reaches target, to within 5 %, and returns it. It climbs a
// ladder of fractions of the data size to the first step that passes, then
// bisects between that step and the last failing one. For the tree indexes
// recall never falls as the budget grows (the candidates verified under a
// budget are a prefix of those verified under a larger one), so the bisection
// is exact; for the hashing indexes it still only ever returns a budget that
// was measured to pass. If even the full budget misses the target (possible
// only for the hashing indexes' probe ordering pathologies), the data size
// is returned. Use the returned value as SearchOptions.Budget.
//
// Typical use: generate a handful of representative queries, compute their
// ground truth once, and tune offline; the paper's "candidate fraction"
// tuning in code.
func TuneBudget(ix Index, queries *Matrix, gt [][]Result, k int, target float64) int {
	if queries.N == 0 || len(gt) < queries.N {
		panic("p2h: TuneBudget needs ground truth for every sample query")
	}
	passes := func(budget int) bool {
		var recall float64
		for i := 0; i < queries.N; i++ {
			res, _ := ix.Search(queries.Row(i), SearchOptions{K: k, Budget: budget})
			recall += Recall(res, gt[i][:min(k, len(gt[i]))])
		}
		return recall/float64(queries.N) >= target
	}
	n := ix.N()
	fail := 0 // the largest budget seen to miss the target
	for _, f := range []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0} {
		pass := max(int(f*float64(n)), 1)
		if pass <= fail {
			continue
		}
		if !passes(pass) {
			fail = pass
			continue
		}
		for pass-fail > 1 && float64(pass-fail) > 0.05*float64(pass) {
			if mid := fail + (pass-fail)/2; passes(mid) {
				pass = mid
			} else {
				fail = mid
			}
		}
		return pass
	}
	return n
}
