// Package linearscan implements the exhaustive O(nd) baseline for P2HNNS.
// It is the "trivial solution" the paper's introduction describes, and this
// repository's source of exact ground truth for recall evaluation.
package linearscan

import (
	"math"
	"time"

	"p2h/internal/core"
	"p2h/internal/vec"
)

// Scanner scans lifted data points x = (p; 1) exhaustively.
type Scanner struct {
	data *vec.Matrix
}

// New wraps the lifted data matrix. The matrix is not copied.
func New(data *vec.Matrix) *Scanner {
	if data == nil || data.N == 0 {
		panic("linearscan: empty data")
	}
	return &Scanner{data: data}
}

// N returns the number of indexed points.
func (s *Scanner) N() int { return s.data.N }

// Dim returns the lifted dimensionality d.
func (s *Scanner) Dim() int { return s.data.D }

// scanChunk is the number of rows one vec.DotBlock call covers: large enough
// to amortize the call, small enough that the distances stay on the stack.
const scanChunk = 256

// Search returns the top-k points minimizing |<x, q>|. With an unlimited
// budget the answer is exact; a budget caps the number of points scanned
// (in storage order), matching how candidate budgets apply to the indexes.
// Without a Filter the scan runs in blocks of rows; a Filter decides row by
// row which points cost an inner product and count against the budget.
func (s *Scanner) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	var st core.Stats
	tk := core.NewTopK(opts.K)
	var start time.Time
	if opts.Profile != nil {
		start = time.Now()
	}
	if opts.Filter == nil {
		n, d := s.data.N, s.data.D
		if opts.Budget > 0 {
			n = min(n, opts.Budget)
		}
		var dists [scanChunk]float64
		for lo := 0; lo < n; lo += scanChunk {
			hi := min(lo+scanChunk, n)
			out := dists[:hi-lo]
			vec.DotBlock(q, s.data.Data[lo*d:hi*d], out)
			for i, v := range out {
				tk.Push(int32(lo+i), math.Abs(v))
			}
		}
		st.IPCount, st.Candidates = int64(n), int64(n)
	} else {
		for i := 0; i < s.data.N && opts.BudgetLeft(st.Candidates); i++ {
			if !opts.Filter(int32(i)) {
				continue
			}
			st.IPCount++
			st.Candidates++
			tk.Push(int32(i), math.Abs(vec.Dot(q, s.data.Row(i))))
		}
	}
	if opts.Profile != nil {
		opts.Profile.Add(core.PhaseVerify, time.Since(start))
	}
	return tk.Results(), st
}

// GroundTruth computes the exact top-k answers for every query row.
func GroundTruth(data, queries *vec.Matrix, k int) [][]core.Result {
	s := New(data)
	out := make([][]core.Result, queries.N)
	for i := 0; i < queries.N; i++ {
		out[i], _ = s.Search(queries.Row(i), core.SearchOptions{K: k})
	}
	return out
}
