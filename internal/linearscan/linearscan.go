// Package linearscan implements the exhaustive O(nd) baseline for P2HNNS.
// It is the "trivial solution" the paper's introduction describes, and this
// repository's source of exact ground truth for recall evaluation.
//
// Every scan is one loop (Scanner.scan): the data a chunk of rows at a time,
// each chunk's accepted rows handed on as a range of rows or a list of ids.
// It is also a dynamic index's pass over its delta (ScanInto).
// One query verifies a range with vec.DotBlockWithin and listed rows with
// vec.Dot; a batch, filtered, budgeted or not, verifies a range in place and
// packs listed rows into blocks, and runs every block through the
// multi-query tile.
package linearscan

import (
	"fmt"
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

// IndexBytes is zero: a scan has no index structure beside the data.
func (s *Scanner) IndexBytes() int64 { return 0 }

// scanChunk is the number of rows one kernel call covers: large enough to
// amortize the call, small enough that one query's distances stay on the
// stack and that the rows (129 KiB at d = 129) are still in L2 when the last
// group of a batch passes over them. It is also how often a scan polls
// opts.Cancel.
const scanChunk = 256

// scan is the scanner's one loop. It walks the data a scanChunk of rows at a
// time, in storage order, polls opts.Cancel before each chunk, and hands
// visit each chunk's accepted rows: as the range [lo, hi) when they are a
// prefix of the chunk (without a Filter or live, every row up to the budget),
// and otherwise as their row numbers, sel. Row r is admitted when live, if
// not nil, holds base+r and opts.Filter, if set, accepts base+r; the two are
// asked once per row until opts.Budget rows are accepted. It returns how many
// rows were accepted: every row handed to visit, which is every accepted row
// the scan covered.
func (s *Scanner) scan(opts core.SearchOptions, base int32, live core.Bitmap, visit func(lo, hi int, sel []int32)) int64 {
	n := s.data.N
	var accepted int64
	var ids [scanChunk]int32
	for lo := 0; lo < n && opts.BudgetLeft(accepted); lo += scanChunk {
		if opts.Canceled() {
			break
		}
		hi, want := min(lo+scanChunk, n), scanChunk
		if opts.Budget > 0 {
			want = opts.Budget - int(accepted)
		}
		if opts.Filter == nil && live == nil {
			hi = min(hi, lo+want)
			accepted += int64(hi - lo)
			visit(lo, hi, nil)
			continue
		}
		m := 0
		for r, filter := lo, opts.Filter; r < hi && m < want; r++ {
			if id := base + int32(r); (live == nil || live.Has(id)) && (filter == nil || filter(id)) {
				ids[m] = int32(r)
				m++
			}
		}
		accepted += int64(m)
		switch {
		case m == 0:
		case int(ids[m-1]) == lo+m-1:
			visit(lo, lo+m, nil)
		default:
			visit(lo, hi, ids[:m])
		}
	}
	return accepted
}

// Search returns the top-k points minimizing |<x, q>|. With an unlimited
// budget the answer is exact; a budget caps the number of points scanned
// (in storage order), matching how candidate budgets apply to the indexes.
// A Filter decides which points cost an inner product and count against the
// budget. It is ScanInto over every row into a collector of its own.
func (s *Scanner) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	tk := core.NewTopK(opts.K)
	n := s.ScanInto(q, opts, 0, nil, tk)
	return tk.Results(), core.Stats{IPCount: n, Candidates: n}
}

// ScanInto pushes the rows opts admits into tk, which may already hold
// results, and returns how many it verified. Row r is the point base+r, and
// admitted only when live, if not nil, holds base+r (a dynamic index's delta
// is scanned this way, over the index's liveness bitmap). The scan runs a
// chunk at a time (see scan): the accepted prefix of a chunk, every row of it
// without a Filter or live, through one vec.DotBlockWithin call against tk's
// k-th best distance at the chunk's start — the float32 screen, which
// computes in float64 only the rows that may reach the collector — any other
// accepted row through vec.Dot, in place: one query reads a row once, so
// gathering rows would only copy them. opts.Cancel is polled once per chunk;
// a canceled scan stops with the best of the rows it covered in tk. A
// profile is charged the scan as verification.
func (s *Scanner) ScanInto(q []float32, opts core.SearchOptions, base int32, live core.Bitmap, tk *core.TopK) int64 {
	var start time.Time
	if opts.Profile != nil {
		start = time.Now()
	}
	d := s.data.D
	qnorm := vec.Norm(q)
	var dists [scanChunk]float64
	var kept [scanChunk]int32
	n := s.scan(opts, base, live, func(lo, hi int, sel []int32) {
		if sel != nil {
			for _, r := range sel {
				tk.Push(base+r, vec.AbsDot(q, s.data.Row(int(r))))
			}
			return
		}
		out := dists[:hi-lo]
		for _, i := range vec.DotBlockWithin(q, qnorm, tk.Lambda(), s.data.Data[lo*d:hi*d], out, kept[:0]) {
			tk.Push(base+int32(lo)+i, math.Abs(out[i]))
		}
	})
	if opts.Profile != nil {
		opts.Profile.Add(core.PhaseVerify, time.Since(start))
	}
	return n
}

// block is rows verified together by a batch: row r of the packed rows is
// the point with id lo+r, or ids[r] when ids is not nil.
type block struct {
	rows []float32
	lo   int32
	ids  []int32
}

// gather packs a filtered batch's scattered accepted rows, from as many
// chunks as it takes, into blocks of up to scanChunk rows. Its buffer is
// allocated on first use and dropped with the call: one kept past the call
// would hold on to whatever it last packed.
type gather struct {
	data *vec.Matrix
	rows []float32
	ids  []int32
}

// add packs the rows sel names, handing verify the block first if they would
// overflow it.
func (g *gather) add(sel []int32, verify func(block)) {
	d := g.data.D
	if g.rows == nil {
		g.rows, g.ids = make([]float32, scanChunk*d), make([]int32, 0, scanChunk)
	}
	if len(g.ids)+len(sel) > scanChunk {
		g.flush(verify)
	}
	for _, id := range sel {
		copy(g.rows[len(g.ids)*d:], g.data.Row(int(id)))
		g.ids = append(g.ids, id)
	}
}

// flush hands verify the packed rows, if there are any, and empties the block.
func (g *gather) flush(verify func(block)) {
	if len(g.ids) > 0 {
		verify(block{rows: g.rows[:len(g.ids)*g.data.D], ids: g.ids})
		g.ids = g.ids[:0]
	}
}

// SearchBatch answers one top-k query per row of queries with results and
// Stats identical to per-query Search calls. A batch walks the matrix once,
// through the loop Search runs (scan), so a Filter is asked once per row for
// the whole batch and a budget accepts the same rows for every query. A
// chunk's accepted prefix is verified in place, other accepted rows once
// gathered into a packed block (see gather); each block is verified for
// every query while it sits in cache, vec.TileQueries queries per pass of
// the multi-query kernel (Queries.DotBlockWithin: the float32 tile screens
// the block against each query's k-th distance at the block's start, and
// only the products it cannot rule out are computed in float64), and only
// products at or under a query's current k-th distance reach its collector —
// the rest Push would turn away.
// opts.Cancel is polled once per chunk, as in Search, so a canceled batch
// returns every query's best over the chunks it covered. A profile is
// charged the pass as verification, as Search charges its scan.
func (s *Scanner) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	d := s.data.D
	if queries.D != d {
		panic(fmt.Sprintf("linearscan: batch queries have dimension %d, want %d", queries.D, d))
	}
	opts = opts.Normalized()
	nq := queries.N
	out := make([][]core.Result, nq)
	stats := make([]core.Stats, nq)
	var start time.Time
	if opts.Profile != nil {
		start = time.Now()
	}
	var wide vec.Queries
	wide.Reset(queries.Data, d)
	heaps := make([]core.TopK, nq)
	all := make([]int32, nq)
	for i := range heaps {
		heaps[i].Init(opts.K)
		all[i] = int32(i)
	}
	var dists [scanChunk * vec.TileQueries]float64
	var kept [scanChunk * vec.TileQueries]int32
	var lambdas [vec.TileQueries]float64
	verify := func(b block) {
		m := len(b.rows) / d
		for g := 0; g < nq; g += vec.TileQueries {
			group := all[g:min(g+vec.TileQueries, nq)]
			w := len(group)
			for k, qi := range group {
				lambdas[k] = heaps[qi].Lambda()
			}
			for _, i := range wide.DotBlockWithin(group, lambdas[:w], b.rows, dists[:m*w], kept[:0]) {
				r, tk := int(i)/w, &heaps[group[int(i)%w]]
				// Not "v <= lambda": a NaN must reach Push as it does in Search.
				if v := math.Abs(dists[i]); !(v > tk.Lambda()) {
					id := b.lo + int32(r)
					if b.ids != nil {
						id = b.ids[r]
					}
					tk.Push(id, v)
				}
			}
		}
	}
	g := gather{data: s.data}
	n := s.scan(opts, 0, nil, func(lo, hi int, sel []int32) {
		if sel != nil {
			g.add(sel, verify)
			return
		}
		g.flush(verify)
		verify(block{rows: s.data.Data[lo*d : hi*d], lo: int32(lo)})
	})
	g.flush(verify)
	if opts.Profile != nil {
		opts.Profile.Add(core.PhaseVerify, time.Since(start))
	}
	for i := range out {
		out[i] = heaps[i].DrainInto(make([]core.Result, 0, heaps[i].Len()))
		stats[i].IPCount, stats[i].Candidates = n, n
	}
	return out, stats
}
