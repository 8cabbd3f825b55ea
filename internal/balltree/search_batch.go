package balltree

import (
	"fmt"
	"math"
	"slices"

	"p2h/internal/core"
	"p2h/internal/vec"
)

// SearchBatch answers one top-k query per row of queries (lifted, unit
// normals — the same contract as Search). An exact batch is one run of the
// walk every exact search takes (Search is a call of one query): the arena is
// walked once for the whole group, collaborative inner products (Lemma 2)
// apply per query, and at a leaf whole tiles of vec.TileQueries queries
// verify their ball-bound prefixes together through the multi-query kernel
// while the leaf block is in cache (scanLeaf) — it streams from memory once
// per batch instead of once per query. Options, the compiled predicate and
// opts.Cancel serve the whole group: the attribute summaries are asked once
// per node and Cancel is polled at every node. A budgeted batch runs each
// query through the best-first driver in turn. Results and their
// ordering are bitwise identical to per-query Search calls (exact results are
// canonical; see internal/exec).
func (t *Tree) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	if d := t.Dim(); queries.D != d {
		panic(fmt.Sprintf("balltree: batch queries have dimension %d, want %d", queries.D, d))
	}
	out := make([][]core.Result, queries.N)
	stats := make([]core.Stats, queries.N)
	if queries.N == 0 {
		return out, stats
	}
	s := t.acquireSearcher(&t.batchers)
	s.search(queries.Data[:queries.N*queries.D], queries.N, opts, nil)
	for i := range out {
		out[i], stats[i] = s.qs[i].tk.DrainInto(nil), s.qs[i].st
	}
	s.end()
	t.batchers.Put(s)
	return out, stats
}

// verifyTile offers the tile of vec.TileQueries queries tile their prefixes
// of the leaf that starts at arena position start, cuts. The multi-query
// kernel verifies the rows all of the tile verifies — the shortest of their
// prefixes — screened in float32 against each query's k-th best distance on
// entry (vec.Queries.DotBlockWithin), so each row element serves the whole
// tile while the leaf block is in cache; then each query finishes what is
// left of its own prefix in verify. A query whose prefix is empty costs
// nothing here.
func (s *Searcher) verifyTile(start int, tile []int32, cuts []int) {
	const g = vec.TileQueries
	sec, d := s.sec, s.sec.points.D
	shared := slices.Min(cuts)
	if shared > 0 {
		var lambdas [g]float64
		for k, qi := range tile {
			lambdas[k] = s.qs[qi].tk.Lambda()
		}
		dists := s.scr.Dists(shared * g)
		s.sel = s.scr.Wide.DotBlockWithin(tile, lambdas[:], sec.points.Data[start*d:(start+shared)*d], dists, s.sel[:0])
		for _, i := range s.sel {
			row, k := int(i)/g, int(i)%g
			s.qs[tile[k]].tk.Push(sec.ids[start+row], math.Abs(dists[i]))
		}
	}
	for k, qi := range tile {
		s.verify(&s.qs[qi], start+shared, start+cuts[k])
	}
}
