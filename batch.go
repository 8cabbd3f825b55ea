package p2h

import (
	"fmt"

	"p2h/internal/core"
	"p2h/internal/vec"
)

// BatchIndex is the optional batched execution surface of an index: a native
// SearchBatch answers a whole group of queries in one shared traversal
// (internal/exec) instead of a per-query loop, amortizing node visits and
// leaf verification across the group. The balltree, bctree, sharded and
// linearscan kinds (the last streams the data once for the whole group)
// implement it; p2h.SearchBatch and the Server find it by type assertion and
// route through it automatically.
type BatchIndex interface {
	Index
	// SearchBatch answers one top-k query per row of queries (each row a
	// hyperplane (w; b), exactly as Search takes). Results and their
	// ordering are identical to per-query Search calls; the per-query Stats
	// reflect the work actually performed, which the shared traversal
	// distributes differently than a per-query loop would.
	SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats)
}

// checkQueryBatch validates a batch of hyperplane queries over d-dimensional
// points and rescales any row without a unit normal, copying the matrix at
// most once. Validation and the normalization band go through the same
// checked core as checkQuery (core.CheckQuery, core.UnitNormBand), so
// batched and per-query paths see bit-identical canonical queries.
func checkQueryBatch(queries *Matrix, d int) *Matrix {
	if queries.D != d+1 {
		panic(fmt.Sprintf("p2h: %v: batch queries have dimension %d, want %d (normal) + 1 (offset)",
			core.ErrDimMismatch, queries.D, d+1))
	}
	out := queries
	for i := 0; i < queries.N; i++ {
		n, err := core.CheckQuery(out.Row(i), d)
		if err != nil {
			panic("p2h: " + err.Error())
		}
		if core.UnitNormBand(n) {
			continue
		}
		if out == queries {
			out = queries.Clone()
		}
		vec.Scale(out.Row(i), 1/n)
	}
	return out
}

// batchInner is an inner index with a batched path of its own.
type batchInner interface {
	inner
	SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats)
}

// batchHandle is the handle of a kind whose inner index is a batchInner. It is
// a type of its own because BatchIndex is found by type assertion: a kind
// without a native batch must not have the method.
type batchHandle struct{ handle }

// SearchBatch implements BatchIndex over the inner index's shared traversal
// (for Sharded: every shard serves the whole batch and the per-shard answers
// merge exactly per query, on at most Spec.Workers goroutines).
func (t *batchHandle) SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats) {
	queries = checkQueryBatch(queries, t.raw)
	opts, empty := t.applyPred(opts)
	if empty {
		return make([][]Result, queries.N), make([]Stats, queries.N)
	}
	return t.in.(batchInner).SearchBatch(queries, opts)
}

// Interface conformance checks.
var (
	_ Index      = (*handle)(nil)
	_ Index      = (*Dynamic)(nil)
	_ BatchIndex = (*batchHandle)(nil)
	_ BatchIndex = (*BallTree)(nil)
	_ BatchIndex = (*Sharded)(nil)
	_ BatchIndex = (*LinearScan)(nil)
)
