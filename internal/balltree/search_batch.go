package balltree

import (
	"fmt"
	"math"
	"slices"

	"p2h/internal/core"
	"p2h/internal/exec"
	"p2h/internal/vec"
)

// SearchBatch answers one top-k query per row of queries (lifted, unit
// normals — the same contract as Search) in a single shared traversal: the
// arena is walked once for the whole group, collaborative inner products
// (Lemma 2) apply per query, the point-level ball bound cuts each query's
// verified prefix of the radius-sorted leaf, and the active queries verify
// their prefixes four to a pass of the multi-query kernel while the leaf
// block is in cache (scanLeaf) — it streams from memory once per batch
// instead of once per query. The
// point-level cone bound is skipped in batch mode: it selects per-query
// survivor subsets that would be verified row by row, and the dense blocked
// scan of the whole prefix is the cheaper trade. On a Ball tree every prefix
// is the whole leaf and both child inner products are computed from their
// centres. Results and their ordering are
// bitwise identical to per-query Search calls (exact results are canonical;
// see internal/exec).
//
// Batches that are not exec.Eligible (budgeted, filtered, or profiled)
// fall back to the per-query path on one pooled Searcher, preserving
// per-query traversal semantics exactly.
func (t *Tree) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	if queries.D != t.points.D {
		panic(fmt.Sprintf("balltree: batch queries have dimension %d, want %d", queries.D, t.points.D))
	}
	opts = t.normalize(opts)
	out := make([][]core.Result, queries.N)
	stats := make([]core.Stats, queries.N)
	if queries.N == 0 {
		return out, stats
	}
	if !exec.Eligible(opts) || queries.N == 1 {
		s := t.acquireSearcher()
		exec.Fallback(s, queries, opts, out, stats)
		t.releaseSearcher(s)
		return out, stats
	}
	b := t.batchers.Get()
	b.tree = t
	b.run(queries, opts, out, stats)
	t.batchers.Put(b)
	return out, stats
}

// batchSearcher carries one shared traversal's state; it is pooled on the
// tree and reaches a zero-allocation steady state for the traversal itself
// (the returned result slices are the only per-batch allocations).
type batchSearcher struct {
	tree    *Tree
	queries *vec.Matrix
	opts    core.SearchOptions
	scr     exec.BatchScratch
	stats   []core.Stats
	quant   bool // quantized leaf filtering active for this batch
}

func (b *batchSearcher) run(queries *vec.Matrix, opts core.SearchOptions, out [][]core.Result, stats []core.Stats) {
	t := b.tree
	nq := queries.N
	b.queries, b.opts, b.stats = queries, opts, stats
	scr := &b.scr
	scr.Reset(queries, opts.K)
	b.quant = t.qz != nil && !opts.DisableQuantFilter
	if b.quant {
		scr.ResetQuant(t.qz, queries)
	} else {
		scr.Wide.Reset(queries.Data, queries.D)
	}

	mark := scr.Mark()
	act, ips := scr.Alloc(nq)
	for i := range act {
		act[i] = int32(i)
	}
	root := t.centers.Row(0)
	for i := range act {
		ips[i] = vec.Dot(queries.Row(i), root)
		stats[i].IPCount++
	}
	b.visit(0, act, ips, 0)
	scr.Release(mark)

	for i := 0; i < nq; i++ {
		out[i] = scr.Heaps[i].DrainInto(nil)
	}
	b.queries, b.stats = nil, nil
	scr.Wide.Reset(nil, queries.D)
}

// visit walks one node for the whole group: the node-level ball bound
// filters the active set per query (strictly, as in Searcher.visit), leaves
// are verified for all survivors at once, and internal nodes recurse with
// per-child segments carved from the scratch arena. The left child's inner
// product costs O(d) per active query; the right child's follows from
// Lemma 2 in O(1) on a BC tree. kappa is Searcher.step's: what the node's
// inner products may be off by per unit of ||q||, one number for the whole
// group since it depends on the tree alone. The branch order is the group's
// center-preference vote — order affects only pruning work, never results,
// which are canonical.
func (b *batchSearcher) visit(ni int32, act []int32, ips []float64, kappa float64) {
	t := b.tree
	scr := &b.scr
	n := &t.nodes[ni]
	live := 0
	for j, qi := range act {
		st := &b.stats[qi]
		st.NodesVisited++
		offset := math.Abs(ips[j]) - scr.QNorms[qi]*kappa
		if offset-scr.QNorms[qi]*n.radius > scr.Heaps[qi].Lambda() {
			st.PrunedNodes++
			continue
		}
		act[live], ips[live] = qi, ips[j]
		live++
	}
	if live == 0 {
		return
	}
	act, ips = act[:live], ips[:live]
	if n.isLeaf() {
		b.scanLeaf(n, act, ips, kappa)
		return
	}

	mark := scr.Mark()
	actL, ipsL := scr.Alloc(live)
	actR, ipsR := scr.Alloc(live)
	copy(actL, act)
	copy(actR, act)
	centerL := t.centers.Row(int(n.leftRow))
	cn := float64(n.count())
	cl := float64(t.nodes[ni+1].count())
	cr := float64(t.nodes[n.right].count())
	var centerR []float32 // Ball kind only
	var kappaR float64
	if t.kind == Ball {
		centerR = t.centers.Row(int(n.right))
	} else {
		kappaR = cn / cr * (kappa + centerStep*n.centerNorm)
	}
	var sumL, sumR float64
	for j, qi := range act {
		q := b.queries.Row(int(qi))
		ipl := vec.Dot(q, centerL)
		b.stats[qi].IPCount++
		var ipr float64
		if t.kind == Ball {
			ipr = vec.Dot(q, centerR)
			b.stats[qi].IPCount++
		} else {
			// Lemma 2: <q, rc.c> = (|N| <q, N.c> - |lc| <q, lc.c>) / |rc|.
			ipr = (cn*ips[j] - cl*ipl) / cr
			b.stats[qi].CollabIPs++
		}
		ipsL[j], ipsR[j] = ipl, ipr
		sumL += math.Abs(ipl)
		sumR += math.Abs(ipr)
	}
	if sumR < sumL {
		b.visit(n.right, actR, ipsR, kappaR)
		b.visit(ni+1, actL, ipsL, 0)
	} else {
		b.visit(ni+1, actL, ipsL, 0)
		b.visit(n.right, actR, ipsR, kappaR)
	}
	scr.Release(mark)
}

// scanLeaf verifies the leaf for every active query. The point-level ball
// bound (Corollary 1, strict) cuts each query's prefix of the radius-sorted
// leaf by binary search, all of them before any row is verified: a cut reads
// only its own query's collector, which no other query's pushes reach, so
// cutting first is cutting in turn. Then vec.TileQueries queries at a time
// go through the multi-query kernel over the rows all of the group verify —
// the shortest of their prefixes — so each converted row element serves the
// whole group, and every query finishes what is left of its own prefix, as
// do the queries of a last incomplete group, with vec.DotBlock. A query whose
// prefix is empty costs nothing beyond its pruning bookkeeping. kappa
// discounts each query's |<q, N.c>| as in Searcher.step. Results and counters
// are those of verifying query by query (canonical exact results; see
// internal/exec).
func (b *batchSearcher) scanLeaf(n *nodeRec, act []int32, ips []float64, kappa float64) {
	t := b.tree
	m := int(n.count())
	if m == 0 {
		return
	}
	if b.quant {
		b.scanLeafQuant(n, act, ips, kappa)
		return
	}
	start, d := int(n.start), t.points.D
	cuts := b.scr.Cuts(len(act))
	for j, qi := range act {
		cuts[j] = b.cutLeaf(n, qi, ips[j], kappa)
		b.stats[qi].IPCount += int64(cuts[j])
		b.stats[qi].Candidates += int64(cuts[j])
	}
	const g = vec.TileQueries
	j := 0
	for ; j+g <= len(act); j += g {
		shared := slices.Min(cuts[j : j+g])
		if shared > 0 {
			dists := b.scr.Dists(shared * g)
			b.scr.Wide.DotBlock(act[j:j+g], t.points.Data[start*d:(start+shared)*d], dists)
			for k, qi := range act[j : j+g] {
				tk := &b.scr.Heaps[qi]
				for r := 0; r < shared; r++ {
					tk.Push(t.ids[start+r], math.Abs(dists[r*g+k]))
				}
			}
		}
		for k, qi := range act[j : j+g] {
			b.verify(qi, start+shared, start+cuts[j+k])
		}
	}
	for ; j < len(act); j++ {
		b.verify(act[j], start, start+cuts[j])
	}
}

// cutLeaf counts query qi's visit to the leaf and returns how many leading
// points its point-level ball bound leaves to verify.
func (b *batchSearcher) cutLeaf(n *nodeRec, qi int32, ip, kappa float64) int {
	st := &b.stats[qi]
	st.LeavesVisited++
	m := int(n.count())
	if b.opts.DisablePointBall {
		return m
	}
	start := int(n.start)
	qnorm := b.scr.QNorms[qi]
	mj := vec.BallCutoff(math.Abs(ip)-qnorm*kappa, qnorm, b.scr.Heaps[qi].Lambda(),
		n.centerNorm, b.tree.xcos[start:start+m], b.tree.xsin[start:start+m])
	st.PrunedPoints += int64(m - mj)
	return mj
}

// verify offers query qi the points at positions [lo, hi) of the arena: one
// blocked kernel call and a push per row.
func (b *batchSearcher) verify(qi int32, lo, hi int) {
	if lo >= hi {
		return
	}
	t := b.tree
	d := t.points.D
	dists := b.scr.Dists(hi - lo)
	vec.DotBlock(b.queries.Row(int(qi)), t.points.Data[lo*d:hi*d], dists)
	tk := &b.scr.Heaps[qi]
	for r, v := range dists {
		tk.Push(t.ids[lo+r], math.Abs(v))
	}
}

// scanLeafQuant is the leaf scan of a quantized tree, query by query: a query
// whose heap is full runs the code filter over its prefix of the (4x smaller)
// code block first and verifies only the survivors, row by row unless every
// row survived — exactly like the single-query path. The filter's threshold
// moves with each push, so these queries do not share a kernel pass.
func (b *batchSearcher) scanLeafQuant(n *nodeRec, act []int32, ips []float64, kappa float64) {
	t := b.tree
	start := int(n.start)
	d := t.points.D
	for j, qi := range act {
		mj := b.cutLeaf(n, qi, ips[j], kappa)
		if mj == 0 {
			continue
		}
		st := &b.stats[qi]
		tk := &b.scr.Heaps[qi]
		if tk.Full() {
			w, base, invS, eps := b.scr.QuantFilter(int(qi), d)
			sel := vec.CodeSelect(t.codes[start*d:(start+mj)*d], d,
				w, base, invS, eps, tk.Lambda(), b.scr.Sel(mj))
			if len(sel) < mj {
				st.PrunedPoints += int64(mj - len(sel))
				st.IPCount += int64(len(sel))
				st.Candidates += int64(len(sel))
				q := b.queries.Row(int(qi))
				for _, r := range sel {
					pos := start + int(r)
					tk.Push(t.ids[pos], math.Abs(vec.Dot(q, t.points.Row(pos))))
				}
				continue
			}
		}
		st.IPCount += int64(mj)
		st.Candidates += int64(mj)
		b.verify(qi, start, start+mj)
	}
}
