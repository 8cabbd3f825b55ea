package balltree

import (
	"fmt"
	"math"
	"slices"
	"time"

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

// scanLeaf verifies leaf n for the active queries act (ips and kappa as in
// step). When the call is tiled (see Searcher.begin), whole tiles of
// vec.TileQueries queries share the multi-query kernel (scanTiles). Every
// other query runs the single-query pipeline, scanWithPruning, against its
// own collector: a query left over past the last tile, each of a group
// smaller than a tile — a single Search among them — and each of a call with
// liveness, a predicate or a Filter. A Profile takes no part in the choice;
// both scans charge it.
func (s *Searcher) scanLeaf(n *nodeRec, act []int32, ips []float64, kappa float64) {
	tiled := 0
	if s.tiled {
		tiled = len(act) - len(act)%vec.TileQueries
		if tiled > 0 {
			s.scanTiles(n, act[:tiled], ips[:tiled], kappa)
		}
	}
	for j := tiled; j < len(act); j++ {
		r := &s.qs[act[j]]
		s.scanWithPruning(r, n, math.Max(math.Abs(ips[j])-r.qnorm*kappa, 0))
	}
}

// scanTiles verifies the leaf for whole tiles of active queries. The
// point-level ball bound (Corollary 1, strict) cuts each query's prefix of
// the radius-sorted leaf by binary search, all of them before any row is
// verified: a cut reads only its own query's collector, which no other
// query's pushes reach, so cutting first is cutting in turn. Then each tile
// goes through the multi-query kernel over the rows all of it verifies — the
// shortest of their prefixes — so each row element serves the whole tile,
// screened in float32 against each query's k-th best distance on entry
// (vec.Queries.DotBlockWithin), and every query finishes what is left of its
// own prefix in verify. The point-level cone bound is skipped here: it selects
// per-query survivor subsets that would be verified row by row, and the dense
// blocked scan of the whole prefix is the cheaper trade. A query whose prefix
// is empty costs nothing beyond its pruning bookkeeping. Results are those of
// verifying query by query (canonical exact results; see internal/exec). A
// profile is charged the cuts as bound time and the tiles and what each
// query finishes alone as verification.
func (s *Searcher) scanTiles(n *nodeRec, act []int32, ips []float64, kappa float64) {
	var t0 time.Time
	profiling := s.opts.Profile != nil
	if profiling {
		t0 = time.Now()
	}
	sec := s.sec
	start, d := int(n.start), sec.points.D
	grid := sec.grid(n)
	cuts := s.scr.Cuts(len(act))
	for j, qi := range act {
		r := &s.qs[qi]
		r.st.LeavesVisited++
		cuts[j] = s.ballCutoff(r, n, &grid, math.Max(math.Abs(ips[j])-r.qnorm*kappa, 0), r.tk.Lambda())
		r.st.IPCount += int64(cuts[j])
		r.st.Candidates += int64(cuts[j])
	}
	if profiling {
		cut := time.Now()
		s.opts.Profile.Add(core.PhaseBound, cut.Sub(t0))
		t0 = cut
	}
	const g = vec.TileQueries
	for j := 0; j < len(act); j += g {
		shared := slices.Min(cuts[j : j+g])
		if shared > 0 {
			var lambdas [g]float64
			for k, qi := range act[j : j+g] {
				lambdas[k] = s.qs[qi].tk.Lambda()
			}
			dists := s.scr.Dists(shared * g)
			s.sel = s.scr.Wide.DotBlockWithin(act[j:j+g], lambdas[:], sec.points.Data[start*d:(start+shared)*d], dists, s.sel[:0])
			for _, i := range s.sel {
				row, k := int(i)/g, int(i)%g
				s.qs[act[j+k]].tk.Push(sec.ids[start+row], math.Abs(dists[i]))
			}
		}
		for k, qi := range act[j : j+g] {
			s.verify(&s.qs[qi], start+shared, start+cuts[j+k])
		}
	}
	if profiling {
		s.opts.Profile.Add(core.PhaseVerify, time.Since(t0))
	}
}

// verify offers query r the points at positions [lo, hi) of the arena: one
// blocked kernel call and a push per row it lists. The kernel screens the
// block in float32 against the query's k-th best distance on entry
// (vec.DotBlockWithin); a row it rules out would not be kept by the push. The
// list lives in s.sel, free once a leaf's survivors are settled.
func (s *Searcher) verify(r *query, lo, hi int) {
	if lo >= hi {
		return
	}
	sec := s.sec
	d := sec.points.D
	dists := s.scr.Dists(hi - lo)
	s.sel = vec.DotBlockWithin(r.q, r.qnorm, r.tk.Lambda(), sec.points.Data[lo*d:hi*d], dists, s.sel[:0])
	for _, i := range s.sel {
		r.tk.Push(sec.ids[lo+int(i)], math.Abs(dists[i]))
	}
}
