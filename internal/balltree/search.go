package balltree

import (
	"math"
	"time"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/exec"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// Search answers a top-k P2HNNS query with Algorithm 5: branch-and-bound
// over the ball hierarchy — depth-first when exact (the walk every exact
// search shares; Search is a call of one query), best-first from one
// frontier when opts.Budget caps the candidates (see bestFirst) — pruning
// any node whose node-level ball bound (Theorem 2)
//
//	lb = max(|<q, N.c>| - ||q|| * N.r, 0)
//
// is strictly above the current k-th best distance q.λ, augmented with
//
//   - collaborative inner product computing (Lemma 2): a visited internal
//     node computes the O(d) inner product for its left child only; the right
//     child's follows in O(1) from the node's own inner product, cutting the
//     node-level bound cost almost in half (Theorem 5) — and the centres
//     stored too, since a right child's is never read. The derived product
//     inherits the float32 rounding of the centres it is derived from; every
//     bound it enters is loosened by that much (kappa, see step);
//   - point-level pruning in the leaves (ScanWithPruning): the point-level
//     ball bound (Corollary 1) prunes the tail of the radius-sorted leaf in a
//     batch (vec.BallCutoff finds the cut by binary search over the radii the
//     cone pairs imply, vec.ConeGrid.Radius), and the
//     point-level cone bound (Theorem 3) prunes single points it misses via
//     the fused vec.ConeSelect kernel; survivors are verified by one blocked
//     vec.DotBlock call when the whole prefix survives. Predicate and Filter
//     searches take the same scan, their row filters among its stages.
//
// The two ablation switches in opts reproduce the paper's Figure 8 variants. A
// Ball kind tree runs with both forced on (see normalize) and computes both
// children's inner products from their centres, which is Algorithm 3: two
// O(d) inner products per visited internal node and one vec.DotBlock call
// over each visited leaf's contiguous rows.
//
// Search runs on a pooled Searcher, so a steady-state call's only allocation
// is the returned results slice; use a Searcher directly to eliminate that
// one too.
func (t *Tree) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	return t.SearchLive(q, opts, nil)
}

// SearchLive is Search over the rows whose id is in live, a bitmap covering
// every id the tree holds; a nil live admits every row. A row outside it is
// dropped in the leaf scan before any bound arithmetic, so it costs no inner
// product and no budget — the answer and the candidate count are those of a
// Filter closure reading the same bits, without a call per row. The bitmap is
// read during the call only: the caller owns it, and may grow it between
// calls.
func (t *Tree) SearchLive(q []float32, opts core.SearchOptions, live core.Bitmap) ([]core.Result, core.Stats) {
	s := t.acquireSearcher(&t.searchers)
	res, st := s.SearchLive(q, opts, live, nil)
	t.searchers.Put(s)
	return res, st
}

// Searcher is a reusable executor over one tree. A call's state is split in
// two: what every query of the call shares — the options, the compiled
// predicate, the liveness bitmap and the flags derived from them — and one
// record per query (see query). The scratch (the walk's active-set arena, the
// leaf buffers, the budgeted frontier, the query records themselves) persists
// across calls, so steady-state search allocates nothing beyond growth of the
// caller's dst. A Searcher is not safe for concurrent use; acquire one per
// goroutine (Tree.Search and Tree.SearchBatch pool them automatically).
type Searcher struct {
	tree *Tree
	sec  *sections // the tree's sections, loaded once a call: what the call reads throughout
	opts core.SearchOptions
	live core.Bitmap // SearchLive's bitmap for the current call; nil admits every row

	// Predicate state, live only while opts.Pred is set on a tree with an
	// attribute store: pred points at prog, the predicate compiled against
	// the store once per call (held by value so compiling allocates nothing
	// for a plain tag or range), and usePush gates the per-node summary skip.
	prog    attr.Prog
	pred    *attr.Prog
	usePush bool

	// useQuant: the leaf scan runs the 8-bit code filter (see begin). tiled:
	// full tiles of vec.TileQueries queries share the multi-query kernel at a
	// leaf (see scanLeaf).
	useQuant bool
	tiled    bool

	qs []query // the call's queries, in row order

	sel      []int32           // per-leaf scratch for the survivor list
	frontier []frontierNode    // budgeted searches: min-heap of unopened nodes
	scr      exec.BatchScratch // the walk's active-set arena and the leaf kernels' buffers
}

// query is one query's state in a call: the vector and its norm, its top-k
// collector and work counters, and, while useQuant is set, its fitted integer
// filter (see quant.CodeFilter).
type query struct {
	q       []float32
	qnorm   float64
	sqQnorm float64
	tk      core.TopK
	st      core.Stats
	qf      quant.CodeFilter
}

// NewSearcher returns a reusable executor bound to the tree.
func (t *Tree) NewSearcher() *Searcher { return &Searcher{tree: t} }

func (t *Tree) acquireSearcher(pool *exec.Pool[Searcher]) *Searcher {
	s := pool.Get()
	s.tree = t
	return s
}

// normalize applies the option defaults and, for the Ball kind, forces the
// two point-level ablation switches: a Ball-Tree is the BC-Tree search with
// no point-level ball bound and no point-level cone bound (the tree has no
// arrays to evaluate them on).
func (t *Tree) normalize(opts core.SearchOptions) core.SearchOptions {
	opts = opts.Normalized()
	if t.kind == Ball {
		opts.DisablePointBall, opts.DisablePointCone = true, true
	}
	return opts
}

// Search answers one query, appending the top-k results (ascending
// (Dist, ID)) to dst. Passing a recycled dst makes the call allocation-free
// in steady state.
func (s *Searcher) Search(q []float32, opts core.SearchOptions, dst []core.Result) ([]core.Result, core.Stats) {
	return s.SearchLive(q, opts, nil, dst)
}

// SearchLive is Search over the rows whose id is in live (see
// Tree.SearchLive). An exact search is the shared walk over one query.
func (s *Searcher) SearchLive(q []float32, opts core.SearchOptions, live core.Bitmap, dst []core.Result) ([]core.Result, core.Stats) {
	s.search(q, 1, opts, live)
	r := &s.qs[0]
	res, st := r.tk.DrainInto(dst), r.st
	s.end()
	return res, st
}

// search runs one call over the nq queries packed row-major in rows: the
// exact walk once for all of them, or the best-first driver for each in
// turn. The answers stay in the query records for the caller to drain before
// end.
func (s *Searcher) search(rows []float32, nq int, opts core.SearchOptions, live core.Bitmap) {
	switch run := s.begin(rows, nq, opts, live); {
	case !run:
	case s.opts.Budget > 0:
		for i := range s.qs {
			s.bestFirst(int32(i))
		}
	default:
		s.exact(rows)
	}
}

// begin sets up the per-call state and a record for each of the nq queries
// packed in rows. It reports whether the traversal should run at all: a
// predicate on a tree without attributes constant-folds against the empty
// payload — it either accepts every point (and is dropped) or rejects every
// point (empty results, no traversal).
//
// The quantized filter applies to exact scans only: budgeted searches keep
// the float path so "candidates verified" keeps meaning the same work, and so
// do Filter-closure searches, so that the closure is asked about the rows the
// float scan verifies whether or not the tree carries the mirror. A
// declarative predicate composes with it (the leaf scan filters rows by the
// predicate before the code kernel). Results are identical either way (the
// filter is exact), which the quantized-vs-float equality tests pin down.
func (s *Searcher) begin(rows []float32, nq int, opts core.SearchOptions, live core.Bitmap) bool {
	s.opts = s.tree.normalize(opts)
	s.sec = s.tree.sec()
	s.live = live
	s.useQuant = s.tree.qz != nil && s.opts.Filter == nil && s.opts.Budget <= 0
	run := true
	s.pred, s.usePush = nil, false
	if p := s.opts.Pred; p != nil {
		if s.tree.attrs == nil {
			run = p.MatchesEmpty()
		} else {
			s.prog = *s.tree.attrs.Compile(p)
			s.pred = &s.prog
			s.usePush = s.tree.attrSums != nil
		}
	}
	s.tiled = nq >= vec.TileQueries && live == nil && s.pred == nil &&
		s.opts.Filter == nil && !s.useQuant
	// Grow the records without dropping the storage earlier calls gave them.
	if nq > cap(s.qs) {
		grown := make([]query, nq)
		copy(grown, s.qs[:cap(s.qs)])
		s.qs = grown
	}
	s.qs = s.qs[:nq]
	d := s.sec.points.D
	for i := range s.qs {
		r := &s.qs[i]
		r.q = rows[i*d : (i+1)*d]
		r.qnorm = vec.Norm(r.q)
		r.sqQnorm = r.qnorm * r.qnorm
		r.tk.Init(s.opts.K)
		r.st = core.Stats{}
		if s.useQuant {
			s.tree.qz.Fit(&r.qf, r.q)
		}
	}
	return run
}

// end drops every caller-owned reference, and the sections, so the pooled
// Searcher cannot pin them.
func (s *Searcher) end() {
	s.sec = nil
	for i := range s.qs {
		s.qs[i].q = nil
	}
	s.opts = core.SearchOptions{}
	s.prog, s.pred = attr.Prog{}, nil
	s.usePush = false
	s.live = nil
}

// exact runs the exact walk from the root for every query of the call. rows
// are the queries packed row-major, which the multi-query kernel reads when
// the call is tiled.
func (s *Searcher) exact(rows []float32) {
	sec := s.sec
	scr := &s.scr
	scr.Reset()
	if s.tiled {
		scr.Wide.Reset(rows, sec.points.D)
	}
	act, ips := scr.Alloc(len(s.qs))
	root := sec.centers.Row(0)
	for i := range act {
		r := &s.qs[i]
		act[i] = int32(i)
		ips[i] = vec.Dot(r.q, root)
		r.st.IPCount++
	}
	s.walk(0, act, ips, 0)
	if s.tiled {
		scr.Wide.Reset(nil, sec.points.D)
	}
}

// walk is the exact driver: SubBCTreeSearch (SubBallTreeSearch for the Ball
// kind), the paper's depth-first recursion, run once for the active queries
// act (ips[j] is <q, N.c> for query act[j], kappa as in step). A query leaves
// the active set where its own bound prunes; each child gets the survivors
// and their inner products with its centre as a segment carved from the
// scratch arena, and the children are opened in the order the group's vote
// picks (see step). Order affects only pruning work, never results, which are
// canonical (see internal/exec). opts.Cancel is polled at every node.
func (s *Searcher) walk(ni int32, act []int32, ips []float64, kappa float64) {
	if s.opts.Canceled() {
		return // deadline fired: keep what the collectors already hold
	}
	n := &s.tree.nodes[ni]
	m := len(act)
	mark := s.scr.Mark()
	acts, ipss := s.scr.Alloc(2 * m)
	if live, kappaR, right := s.step(ni, n, act, ips, ipss[:m], ipss[m:], kappa); live > 0 {
		actL, actR := acts[:live], acts[m:m+live]
		for j, qi := range act[:live] {
			actL[j], actR[j] = qi, qi
		}
		ipsL, ipsR := ipss[:live], ipss[m:m+live]
		if right {
			s.walk(n.right, actR, ipsR, kappaR)
			s.walk(ni+1, actL, ipsL, 0)
		} else {
			s.walk(ni+1, actL, ipsL, 0)
			s.walk(n.right, actR, ipsR, kappaR)
		}
	}
	s.scr.Release(mark)
}

// step evaluates node n (arena index ni) for the active queries act, for both
// drivers. ips[j] is <q, center(ni)> for query act[j] as the caller knows it:
// computed from the centre for the root and for left children (and for a Ball
// tree's right children), derived via Lemma 2 for a BC tree's right children.
// kappa bounds, per unit of ||q||, how far a derived ip can be from the
// product with the centre the node's radius and leaf arrays were measured
// from (see centerStep): zero for a computed product, and for the right child
// of N
//
//	kappa_right = (|N|/|right|) * (kappa_N + centerStep*||N.c||),
//
// N's own uncertainty plus the rounding of N's stored centre, both amplified
// by the division. It depends on the tree alone, not on the query, so one
// number serves the group. A bound takes ip at its least favourable: the
// centre is only known to lie |ip| - kappa*||q|| from the hyperplane.
//
// The attribute summaries are asked once for the whole group; the node-level
// ball bound prunes query by query. A leaf is scanned here for its survivors.
// For an internal node step compacts act and ips in place to the survivors,
// returns how many there are, and writes their children's inner products to
// ipsL and ipsR (as long as act; ipsL may be ips itself): the left child's
// from its centre, the right child's via Lemma 2 on a BC tree (from its
// centre on a Ball tree). It also returns the right child's kappa (the left
// child's is zero) and whether the group opens the right child first. That
// is a vote of Algorithm 5 lines 12-17: each query's key for either child —
// |<q, c>| under PrefCenter, the ball bound max(|<q, c>| - ||q||·r, 0) under
// PrefLowerBound — is summed over the group and the smaller sum goes first,
// the left child on a tie; for one query it is that query's own preference.
// A finished node — skipped, pruned for every query, or a leaf — returns zero
// survivors.
//
// Pruning is strict (lb > λ): candidates tied with the k-th best distance
// reach the collector, whose canonical (Dist, ID) order decides — the
// invariant that makes exact results independent of traversal order (see
// internal/exec).
func (s *Searcher) step(ni int32, n *nodeRec, act []int32, ips, ipsL, ipsR []float64, kappa float64) (live int, kappaR float64, right bool) {
	t := s.tree
	if s.usePush && t.attrSums.Node(ni, s.pred) == attr.TriNo {
		// Predicate pushdown: the node's attribute summaries prove no point
		// under it can match, so the whole subtree is skipped. The skip only
		// removes points a per-row filter would have rejected anyway, so the
		// accepted-candidate sequence — and with it the results, budgeted or
		// not — is unchanged.
		for _, qi := range act {
			st := &s.qs[qi].st
			st.FilterSkippedNodes++
			st.FilterSkippedPoints += int64(n.count())
		}
		return 0, 0, false
	}
	for j, qi := range act {
		r := &s.qs[qi]
		r.st.NodesVisited++
		offset := math.Abs(ips[j]) - r.qnorm*kappa
		if offset-r.qnorm*n.radius > r.tk.Lambda() { // a negative bound never prunes, no max needed
			r.st.PrunedNodes++
			continue
		}
		act[live], ips[live] = qi, ips[j]
		live++
	}
	if live == 0 {
		return 0, 0, false
	}
	if n.isLeaf() {
		s.scanLeaf(n, act[:live], ips[:live], kappa)
		return 0, 0, false
	}

	var start time.Time
	if s.opts.Profile != nil {
		start = time.Now()
	}
	centerL := s.sec.centers.Row(int(n.leftRow))
	cn := float64(n.count())
	cl := float64(t.nodes[ni+1].count())
	cr := float64(t.nodes[n.right].count())
	var centerR []float32 // Ball kind only
	if t.kind == Ball {
		centerR = s.sec.centers.Row(int(n.right))
	} else {
		kappaR = cn / cr * (kappa + centerStep*n.centerNorm)
	}
	lowerBound := s.opts.Preference == core.PrefLowerBound
	rl, rr := t.nodes[ni+1].radius, t.nodes[n.right].radius
	var sumL, sumR float64
	for j, qi := range act[:live] {
		r := &s.qs[qi]
		ipl := vec.Dot(r.q, centerL)
		r.st.IPCount++
		var ipr float64
		if t.kind == Ball {
			ipr = vec.Dot(r.q, centerR)
			r.st.IPCount++
		} else {
			// Lemma 2: <q, rc.c> = (|N| <q, N.c> - |lc| <q, lc.c>) / |rc|.
			ipr = (cn*ips[j] - cl*ipl) / cr
			r.st.CollabIPs++
		}
		ipsL[j], ipsR[j] = ipl, ipr
		keyL, keyR := math.Abs(ipl), math.Abs(ipr)
		if lowerBound {
			keyL, keyR = max(keyL-r.qnorm*rl, 0), max(keyR-r.qnorm*rr, 0)
		}
		sumL += keyL
		sumR += keyR
	}
	if s.opts.Profile != nil {
		s.opts.Profile.Add(core.PhaseBound, time.Since(start))
	}
	return live, kappaR, sumR < sumL
}

// frontierNode is an unopened node of a budgeted search: its arena index,
// its centre's inner product with the query and that product's kappa (see
// step), and the key it is ordered by.
type frontierNode struct {
	key   float64
	ip    float64
	kappa float64
	ni    int32
}

// before is the frontier's order: smaller key first, ties by arena index so
// the order — and every counter that depends on it — is a function of
// (tree, query, options) alone.
func (a frontierNode) before(b frontierNode) bool {
	return a.key < b.key || (a.key == b.key && a.ni < b.ni)
}

// bestFirst is the budgeted driver. A depth-first walk cut off after Budget
// candidates spends the whole budget in the first subtree it dives into;
// this one keeps every unopened node on a min-heap frontier and always opens
// the most promising, so the budget goes to the leaves nearest the
// hyperplane wherever they sit in the tree. It stops when the budget is
// spent, the frontier is empty or opts.Cancel fires — with Budget >= n that
// is the exact answer, since exact results do not depend on the order nodes
// are opened. It runs for query qi of the call alone, and opens each node
// through the walk's step.
func (s *Searcher) bestFirst(qi int32) {
	t := s.tree
	r := &s.qs[qi]
	scr := &s.scr
	scr.Reset()
	act, ips := scr.Alloc(3) // step's active set: the one query
	ipc := ips[1:3]          // and its children's inner products
	act, ips = act[:1], ips[:1]
	ip := vec.Dot(r.q, s.sec.centers.Row(0))
	r.st.IPCount++
	s.frontier = s.frontier[:0]
	s.pushFrontier(r, 0, ip, 0, 0)
	for len(s.frontier) > 0 && s.opts.BudgetLeft(r.st.Candidates) && !s.opts.Canceled() {
		e := s.popFrontier()
		n := &t.nodes[e.ni]
		act[0], ips[0] = qi, e.ip
		if live, kappaR, _ := s.step(e.ni, n, act, ips, ipc[:1], ipc[1:], e.kappa); live > 0 {
			s.pushFrontier(r, e.ni+1, ipc[0], 0, n.radius)
			s.pushFrontier(r, n.right, ipc[1], kappaR, n.radius)
		}
	}
}

// pushFrontier keys node ni and sifts it up the heap. PrefCenter keys by the
// centre's offset from the hyperplane relative to the ball's radius,
// |<q,c>| / r: how deep into the ball the hyperplane cuts, which — unlike the
// bare offset the depth-first order compares between two siblings — ranks
// balls of different sizes against each other. PrefLowerBound keys by the
// unclamped ball bound |<q,c>| - ||q||·r. A zero-radius ball (a single point,
// or a leaf of duplicates) has no size of its own to be relative to and is
// ranked on its parent's, so that it still competes by how near it lies.
func (s *Searcher) pushFrontier(r *query, ni int32, ip, kappa, parentRadius float64) {
	rad := s.tree.nodes[ni].radius
	key := math.Abs(ip)
	if s.opts.Preference == core.PrefLowerBound {
		key -= r.qnorm * rad
	} else {
		if rad == 0 {
			rad = parentRadius
		}
		if rad > 0 {
			key /= rad
		}
	}
	e := frontierNode{key: key, ip: ip, kappa: kappa, ni: ni}
	h := append(s.frontier, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.frontier = h
}

// popFrontier removes and returns the frontier's first node.
func (s *Searcher) popFrontier() frontierNode {
	h := s.frontier
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	s.frontier = h
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	return top
}

// scanWithPruning implements Algorithm 5 lines 18-26 over the contiguous,
// radius-sorted storage of the leaf as one pipeline of set filters, cheapest
// first:
//
//  1. the ball bound (Corollary 1) cuts the tail of the leaf in one binary
//     search;
//  2. the liveness bitmap (see SearchLive) and the compiled predicate drop
//     the rows they do not admit — they are data, so they run before any
//     bound arithmetic;
//  3. the fused cone kernel (Theorem 3) drops single rows, over the prefix or
//     over the data filters' survivor list;
//  4. the Filter closure is asked about what the bounds left, in leaf order,
//     until the remaining budget has been accepted: a rejected id costs no
//     inner product and no budget, and an accept-all Filter sees exactly the
//     verified candidates;
//  5. the 8-bit code filter (see useQuant);
//  6. verification: one DotBlock call when no row of the prefix was removed
//     (the common case on hard leaves), else one Dot per survivor.
//
// Every bound is evaluated against the λ at leaf entry; λ only shrinks during
// the scan, so the snapshot prunes conservatively and results stay exact.
// absIP is the least |<q, N.c>| can be given what step knows of it. The scan
// serves query r alone, against its own collector.
func (s *Searcher) scanWithPruning(r *query, n *nodeRec, absIP float64) {
	r.st.LeavesVisited++
	var leafStart time.Time
	profiling := s.opts.Profile != nil
	if profiling {
		leafStart = time.Now()
	}
	t, sec := s.tree, s.sec
	start := int(n.start)
	lambda := r.tk.Lambda()
	grid := sec.grid(n)
	left := math.MaxInt // candidates the budget still allows
	if s.opts.Budget > 0 {
		left = int(int64(s.opts.Budget) - r.st.Candidates)
	}

	// The survivors are the prefix [0, m) while dense, else the list in sel.
	m := s.ballCutoff(r, n, &grid, absIP, lambda)
	sel, dense := s.sel[:0], true
	if live, pred := s.live, s.pred; live != nil || pred != nil {
		for i, id := range sec.ids[start : start+m] {
			if (live == nil || live.Has(id)) && (pred == nil || pred.Match(id)) {
				sel = append(sel, int32(i))
			}
		}
		dense = len(sel) == m
	}
	if !s.opts.DisablePointCone && n.centerNorm > 0 && m > 0 {
		qcos, qsin := r.coneOf(n, absIP)
		cos, sin := sec.xcos[start:start+m], sec.xsin[start:start+m]
		before := len(sel)
		if dense {
			before = m
			sel = vec.ConeSelect(qcos, qsin, lambda, &grid, cos, sin, sel[:0])
		} else {
			sel = vec.ConeSelectIdx(qcos, qsin, lambda, &grid, cos, sin, sel)
		}
		r.st.PrunedPoints += int64(before - len(sel))
		dense = len(sel) == m
	}
	if s.opts.Filter != nil {
		if dense {
			sel = sel[:0]
			for i := 0; i < m; i++ {
				sel = append(sel, int32(i))
			}
		}
		kept := sel[:0]
		for _, i := range sel {
			if len(kept) == left {
				break
			}
			if s.opts.Filter(sec.ids[start+int(i)]) {
				kept = append(kept, i)
			}
		}
		sel = kept
		// A prefix the closure left whole is still verified in one block.
		dense = len(sel) > 0 && int(sel[len(sel)-1]) == len(sel)-1
		if dense {
			m = len(sel)
		}
	}
	// Like the bounds, the code filter needs a finite λ to act.
	if s.useQuant && r.tk.Full() && m > 0 {
		d := sec.points.D
		codes := t.codes[start*d : (start+m)*d]
		before := len(sel)
		if dense {
			before = m
			sel = vec.CodeSelect(codes, d, r.qf.W, r.qf.Base, r.qf.InvS, r.qf.Eps, lambda, sel[:0])
		} else {
			sel = vec.CodeSelectIdx(codes, d, r.qf.W, r.qf.Base, r.qf.InvS, r.qf.Eps, lambda, sel)
		}
		r.st.PrunedPoints += int64(before - len(sel))
		dense = len(sel) == m
	}
	s.sel = sel // keep the grown capacity for the next leaf

	verify := len(sel)
	if dense {
		verify = m
	}
	verify = min(verify, left)
	if verify <= 0 {
		if profiling {
			s.opts.Profile.Add(core.PhaseBound, time.Since(leafStart))
		}
		return
	}

	var t0 time.Time
	if profiling {
		t0 = time.Now()
	}
	if dense {
		s.verify(r, start, start+verify)
	} else {
		for _, i := range sel[:verify] {
			pos := start + int(i)
			r.tk.Push(sec.ids[pos], math.Abs(vec.Dot(r.q, sec.points.Row(pos))))
		}
	}
	r.st.IPCount += int64(verify)
	r.st.Candidates += int64(verify)
	if profiling {
		verifyDur := time.Since(t0)
		s.opts.Profile.Add(core.PhaseVerify, verifyDur)
		s.opts.Profile.Add(core.PhaseBound, time.Since(leafStart)-verifyDur)
	}
}

// ballCutoff returns how many leading points of leaf n, whose grids are g,
// the point-level ball bound keeps for query r against lambda, and counts the
// rest as pruned.
func (s *Searcher) ballCutoff(r *query, n *nodeRec, g *vec.ConeGrid, absIP, lambda float64) int {
	if s.opts.DisablePointBall {
		return int(n.count())
	}
	sec := s.sec
	m := vec.BallCutoff(absIP, r.qnorm, lambda, g, sec.xcos[n.start:n.end], sec.xsin[n.start:n.end])
	r.st.PrunedPoints += int64(int(n.count()) - m)
	return m
}

// coneOf returns the query's side of the cone bound for leaf n: its
// projection onto the leaf centre's direction, ||q|| cos theta = <q, N.c> /
// ||N.c||, taken at the least magnitude absIP allows (only the magnitude
// enters the bound), and the rejection that goes with it — the smaller the
// projection the larger the rejection, so both err toward a lower bound.
func (r *query) coneOf(n *nodeRec, absIP float64) (qcos, qsin float64) {
	qcos = absIP / n.centerNorm
	return qcos, vec.Rejection(r.sqQnorm, qcos, len(r.q))
}
