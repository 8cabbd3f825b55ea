// Package linearscan implements the exhaustive O(nd) baseline for P2HNNS.
// It is the "trivial solution" the paper's introduction describes, and this
// repository's source of exact ground truth for recall evaluation.
package linearscan

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"p2h/internal/core"
	"p2h/internal/exec"
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

// IndexBytes is zero: a scan has no index structure beside the data.
func (s *Scanner) IndexBytes() int64 { return 0 }

// scanChunk is the number of rows one kernel call covers: large enough to
// amortize the call, small enough that one query's distances stay on the
// stack and that the rows (129 KiB at d = 129) are still in L2 when the last
// group of a batch passes over them. It is also how often a scan polls
// opts.Cancel.
const scanChunk = 256

// Search returns the top-k points minimizing |<x, q>|. With an unlimited
// budget the answer is exact; a budget caps the number of points scanned
// (in storage order), matching how candidate budgets apply to the indexes.
// Without a Filter the scan runs in blocks of rows; a Filter decides row by
// row which points cost an inner product and count against the budget.
// opts.Cancel is polled once per scanChunk rows; a canceled scan returns the
// best of the rows it covered, and its Stats count only those.
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
			if opts.Canceled() {
				n = lo
				break
			}
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
			if i%scanChunk == 0 && opts.Canceled() {
				break
			}
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

// SearchBatch answers one top-k query per row of queries with results and
// Stats identical to per-query Search calls. An exact batch without a Filter
// or a Profile walks the matrix once: each scanChunk of rows is verified for
// every query while it sits in cache, vec.TileQueries queries per pass of the
// multi-query kernel, and only products at or under a query's current k-th
// distance reach its collector — the rest Push would turn away. opts.Cancel
// is polled once per scanChunk, as in Search, so a canceled batch returns
// every query's best over the chunks it covered. A budgeted, filtered or
// profiled batch takes the per-query path.
func (s *Scanner) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	n, d := s.data.N, s.data.D
	if queries.D != d {
		panic(fmt.Sprintf("linearscan: batch queries have dimension %d, want %d", queries.D, d))
	}
	opts = opts.Normalized()
	nq := queries.N
	out := make([][]core.Result, nq)
	stats := make([]core.Stats, nq)
	if opts.Budget > 0 || opts.Filter != nil || opts.Profile != nil {
		for i := range out {
			out[i], stats[i] = s.Search(queries.Row(i), opts)
		}
		return out, stats
	}

	var wide vec.Queries
	wide.Reset(queries.Data, d)
	heaps := make([]core.TopK, nq)
	ids := make([]int32, nq)
	for i := range heaps {
		heaps[i].Init(opts.K)
		ids[i] = int32(i)
	}
	var dists [scanChunk * vec.TileQueries]float64
	for lo := 0; lo < n; lo += scanChunk {
		if opts.Canceled() {
			n = lo
			break
		}
		hi := min(lo+scanChunk, n)
		rows := s.data.Data[lo*d : hi*d]
		for g := 0; g < nq; g += vec.TileQueries {
			group := ids[g:min(g+vec.TileQueries, nq)]
			w := len(group)
			wide.DotBlock(group, rows, dists[:(hi-lo)*w])
			for k, qi := range group {
				tk := &heaps[qi]
				lambda := tk.Lambda()
				for r := 0; r < hi-lo; r++ {
					// Not "v <= lambda": a NaN must reach Push as it does in Search.
					if v := math.Abs(dists[r*w+k]); !(v > lambda) && tk.Push(int32(lo+r), v) {
						lambda = tk.Lambda()
					}
				}
			}
		}
	}
	for i := range out {
		out[i] = heaps[i].DrainInto(make([]core.Result, 0, heaps[i].Len()))
		stats[i].IPCount, stats[i].Candidates = int64(n), int64(n)
	}
	return out, stats
}

// GroundTruth computes the exact top-k answers for every query row: the
// batched scan, the queries split over GOMAXPROCS goroutines.
func GroundTruth(data, queries *vec.Matrix, k int) [][]core.Result {
	s := New(data)
	out := make([][]core.Result, queries.N)
	_ = exec.ForChunks(queries.N, runtime.GOMAXPROCS(0), func(lo, hi int) error {
		sub := &vec.Matrix{Data: queries.Data[lo*queries.D : hi*queries.D], N: hi - lo, D: queries.D}
		res, _ := s.SearchBatch(sub, core.SearchOptions{K: k})
		copy(out[lo:hi], res)
		return nil // the chunks never fail
	})
	return out
}
