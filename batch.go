package p2h

import (
	"fmt"

	"p2h/internal/core"
	"p2h/internal/vec"
)

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

// SearchBatch implements Index. A kind with a batched path of its own runs
// it: for the trees one shared walk, for Sharded every shard serving the whole
// batch with an exact merge per query on at most Spec.Workers goroutines, for
// the scan one pass over the data. Every other kind answers the rows one by
// one through its Search, polling opts.Cancel between rows so that rows
// behind a deadline never start, and so returns exactly the per-row Stats.
func (t *handle) SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats) {
	queries = checkQueryBatch(queries, t.raw)
	opts, empty := t.applyPred(opts)
	native, ok := t.in.(interface {
		SearchBatch(queries *Matrix, opts SearchOptions) ([][]Result, []Stats)
	})
	if ok && !empty {
		return native.SearchBatch(queries, opts)
	}
	res, sts := make([][]Result, queries.N), make([]Stats, queries.N)
	for i := 0; i < queries.N && !empty && !opts.Canceled(); i++ {
		res[i], sts[i] = t.in.Search(queries.Row(i), opts)
	}
	return res, sts
}
