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
// goroutines with an exact merge. SearchOptions.Profile is ignored (the
// per-phase timers are not meaningful across concurrent shards).
type Sharded struct {
	batchHandle
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
		Quantize: spec.Quantize,
	})
}

// Shards returns the number of shard trees.
func (t *Sharded) Shards() int { return t.index.Shards() }

// Dynamic is a mutable P2HNNS index, what New returns for KindDynamic: a
// BC-Tree snapshot plus an insert buffer and delete tombstones, rebuilt
// automatically as the delta grows. Built over data it is bulk-loaded and the
// handles are the row indices; built over nil with Spec.Dim set it starts
// empty. Results carry stable handles assigned by Insert; N counts the live
// points. Not safe for concurrent mutation.
type Dynamic struct {
	handle
	index *dynamic.Index
}

// Insert adds a point and returns its stable handle.
func (t *Dynamic) Insert(p []float32) int32 {
	return t.index.Insert(liftPoint(p, t.raw))
}

// InsertWithAttrs adds a point with an attribute payload and returns its
// stable handle. The index keeps the payload (callers must not mutate it);
// searches with SearchOptions.Pred evaluate it per handle.
func (t *Dynamic) InsertWithAttrs(p []float32, at PointAttrs) int32 {
	return t.index.InsertWithAttrs(liftPoint(p, t.raw), at)
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
// back to inline rebuilds inside Insert/Delete (false, the default). Part
// of the server.Compactor surface; NewServer flips it when
// ServerOptions.BackgroundCompaction is set.
func (t *Dynamic) SetBackgroundCompaction(on bool) { t.index.SetBackgroundCompaction(on) }

// CompactionNeeded reports whether the delta (rows inserted since the last
// rebuild + tombstones) has outgrown the compaction threshold
// (Spec.CompactFraction, falling back to Spec.RebuildFraction).
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
// Indexes with a native batched path (BatchIndex: the balltree, bctree,
// sharded and linearscan kinds) serve contiguous sub-batches through it — for
// the trees one arena walk and one pass over each visited leaf block per
// sub-batch instead of per query, for the scan one pass over the data — with
// the sub-batches spread across the workers. For other indexes the workers
// pull queries one at a time. Every index in this library is safe for
// concurrent readers. A panic in any worker (a zero-normal row, say) is
// re-raised in the caller.
//
// SearchOptions.Profile is honored only when the whole batch runs on one
// goroutine (workers == 1 on a non-batched index); on every parallel path
// it is ignored, matching Sharded.Search — concurrent workers cannot share
// one per-phase timer.
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
	if workers > 1 {
		// All workers would share this one Profile pointer; dropping it here
		// keeps concurrent Search calls race-free (and the timings a single
		// traversal would record are not meaningful split across goroutines).
		opts.Profile = nil
	}
	out := make([][]Result, queries.N)
	if queries.N == 0 {
		return out
	}

	if bi, ok := ix.(BatchIndex); ok {
		// Sharded parallelizes internally (bounded by its own Workers);
		// splitting its batch here would both oversubscribe the CPU
		// (workers × shard workers goroutines) and walk every shard tree
		// once per sub-batch instead of once per batch. But that routing
		// only wins when the shared batched traversal actually engages
		// (exact, unfiltered options) and the shard fan-out offers
		// comparable parallelism; otherwise — budgeted or filtered batches,
		// or fewer shards than workers — the worker split below keeps the
		// caller's parallelism.
		if sh, sharded := ix.(*Sharded); sharded &&
			opts.Budget <= 0 && opts.Filter == nil && opts.Pred == nil && opts.Profile == nil &&
			sh.Shards() >= workers {
			res, _ := bi.SearchBatch(queries, opts)
			return res
		}
		if workers <= 1 {
			res, _ := bi.SearchBatch(queries, opts)
			return res
		}
		_ = exec.ForChunks(queries.N, workers, func(lo, hi int) error {
			sub := &Matrix{
				Data: queries.Data[lo*queries.D : hi*queries.D],
				N:    hi - lo,
				D:    queries.D,
			}
			res, _ := bi.SearchBatch(sub, opts)
			copy(out[lo:hi], res)
			return nil // the chunks never fail
		})
		return out
	}

	exec.ForEach(queries.N, workers, func(i int) {
		out[i], _ = ix.Search(queries.Row(i), opts)
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
