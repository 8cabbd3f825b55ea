package balltree

import (
	"math"
	"time"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/exec"
	"p2h/internal/vec"
)

// Search answers a top-k P2HNNS query with Algorithm 5: branch-and-bound
// over the ball hierarchy — depth-first when exact (the walk every exact
// search shares; Search is a call of one query), best-first from one
// frontier when opts.Budget caps the candidates (see bestFirst; a leaf is
// ranked there against its radius, a BC leaf's that of its median point, and
// an internal node against its diameter, see frontierEntry) — pruning any
// node whose node-level ball bound (Theorem 2)
//
//	lb = max(|<q, N.c>| - (||w|| + radiusSlack*||q||) * N.r, 0)
//
// is strictly above the current k-th best distance q.λ. For the lifted query
// q = (w; b) the paper charges the radius ||q||; but every point x = (p; 1)
// and every centre has last coordinate exactly 1 (BuildOwned and Load hold
// them to it), so x - c = (p - c_p; 0) and |<q, x - c>| <= ||w|| * ||x - c||:
// the offset b moves every point of a ball alike and widens nothing (see
// ballScale). The bound is augmented with
//
//   - collaborative inner product computing (Lemma 2): a visited internal
//     node computes the O(d) inner product for its left child only; the right
//     child's follows in O(1) from the node's own inner product, cutting the
//     node-level bound cost almost in half (Theorem 5) — and the centres
//     stored too, since a right child's is never read. The derived product
//     inherits the float32 rounding of the centres it is derived from; every
//     bound it enters is loosened by that much (kappa, see step);
//   - point-level pruning in the leaves (see scanLeaf): the point-level ball
//     bound (Corollary 1) prunes the tail of the radius-sorted leaf in a
//     batch (vec.BallCutoff finds the cut by binary search over the radii the
//     cone pairs imply, vec.ConeGrid.Radius), and what it keeps is verified
//     by one blocked vec.DotBlockWithin call (a float32 screen, decided in
//     float64). Predicate and Filter searches take the same scan, their row
//     filters among its stages.
//
// The two switches in opts reproduce the paper's Figure 8 variants: the
// point-level cone bound (Theorem 3) runs only when opts.PointCone opts in,
// and DisablePointBall drops the ball bound. A Ball kind tree runs with
// neither (see normalize) and computes both children's inner products from
// their centres, which is Algorithm 3: two O(d) inner products per visited
// internal node and one vec.DotBlockWithin call over each visited leaf's
// contiguous rows.
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

	// lists: the call's leaf scans list each query's rows (liveness, a
	// predicate, a Filter or the cone bound); tiled: they do not, and full
	// tiles of vec.TileQueries queries share the multi-query kernel (see
	// scanLeaf).
	lists, tiled bool

	qs []query // the call's queries, in row order

	sel      []int32           // per-leaf scratch for the survivor list
	frontier []frontierNode    // budgeted searches: min-heap of unopened nodes
	scr      exec.BatchScratch // the walk's active-set arena and the leaf kernels' buffers
}

// query is one query's state in a call: the vector, its norm and what its
// ball bounds charge per unit of radius (ballScale), its top-k collector and
// work counters.
type query struct {
	q      []float32
	qnorm  float64
	rscale float64
	tk     core.TopK
	st     core.Stats
}

// ballScale is what a ball bound charges per unit of radius for the lifted
// query q = (w; b) of norm qnorm: ||w||, since a point and the centre of its
// ball differ only in the coordinates w weighs (see Search), plus the rounding
// allowance radiusSlack*||q||. Every ball term — the node-level bound, the
// PrefLowerBound keys and the point-level cut — scales a radius by it; the
// terms that bound the rounding of a product with a centre (kappa), the cone
// bound and the float32 screen are in the lifted space and keep ||q||.
func ballScale(q []float32, qnorm float64) float64 {
	return vec.Norm(q[:len(q)-1]) + radiusSlack*qnorm
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
		opts.DisablePointBall, opts.PointCone = true, false
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
func (s *Searcher) begin(rows []float32, nq int, opts core.SearchOptions, live core.Bitmap) bool {
	s.opts = s.tree.normalize(opts)
	s.sec = s.tree.sec()
	s.live = live
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
	s.lists = live != nil || s.pred != nil || s.opts.Filter != nil || s.opts.PointCone
	s.tiled = nq >= vec.TileQueries && !s.lists
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
		r.rscale = ballScale(r.q, r.qnorm)
		r.tk.Init(s.opts.K)
		r.st = core.Stats{}
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
// centre is only known to lie |ip| - kappa*||q|| from the hyperplane. Kappa
// is charged ||q||: the float64 rounding of the derivation scales with the
// whole query, offset included (the centre-rounding bit misses in the first
// D-1 coordinates only and would take ||w||). The radius is charged the
// query's ballScale.
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
// |<q, c>| under PrefCenter, the ball bound max(|<q, c>| - s·r, 0) under
// PrefLowerBound, s the query's ballScale — is summed over the group and the
// smaller sum goes first, the left child on a tie; for one query it is that
// query's own preference.
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
		if offset-r.rscale*n.radius > r.tk.Lambda() { // a negative bound never prunes, no max needed
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

	var t0 time.Time
	if s.opts.Profile != nil {
		t0 = time.Now()
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
			keyL, keyR = max(keyL-r.rscale*rl, 0), max(keyR-r.rscale*rr, 0)
		}
		sumL += keyL
		sumR += keyR
	}
	s.lap(&t0, core.PhaseBound)
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
// through the walk's step. Keys are set by frontierEntry; the order is the
// heap's alone, whether a child goes through it or, coming first, is opened
// straight away.
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
	e, next := frontierNode{ip: ip}, true // the root is opened first
	for (next || len(s.frontier) > 0) && s.opts.BudgetLeft(r.st.Candidates) && !s.opts.Canceled() {
		if !next {
			e = s.popFrontier()
		}
		n := &t.nodes[e.ni]
		act[0], ips[0] = qi, e.ip
		live, kappaR, _ := s.step(e.ni, n, act, ips, ipc[:1], ipc[1:], e.kappa)
		next = false
		if live == 0 {
			continue
		}
		a := s.frontierEntry(r, e.ni+1, ipc[0], 0, n.radius)
		b := s.frontierEntry(r, n.right, ipc[1], kappaR, n.radius)
		if b.before(a) {
			a, b = b, a
		}
		s.pushFrontier(b)
		// The first child is opened next, skipping the round trip through
		// the heap, when it comes before everything the frontier holds: it
		// is what the pop would return.
		if next = a.before(s.frontier[0]); next {
			e = a
		} else {
			s.pushFrontier(a)
		}
	}
}

// frontierEntry keys node ni for the frontier. PrefCenter keys by the
// centre's offset from the hyperplane relative to the ball's size: how deep
// into the ball the hyperplane cuts, which — unlike the bare offset the
// depth-first order compares between two siblings — ranks balls of different
// sizes against each other. A leaf is keyed |<q,c>| / r, a BC leaf measured
// by its median point rather than its farthest one (see leafRadius), so one
// outlier does not make a leaf look nearer than its points lie. An internal
// node is keyed against its diameter, |<q,c>| / 2r: opening it costs inner
// products but no budget, so it is opened early and the leaves beneath it
// then compete on their own keys before the budget goes to a leaf ranked
// against a coarser ball. PrefLowerBound keys every node by the unclamped
// ball bound |<q,c>| - s·r, s the query's ballScale. A zero-radius ball (a
// single point, or a node of duplicates) has no size of its own to be
// relative to and takes its parent's radius, so that it still competes by
// how near it lies.
func (s *Searcher) frontierEntry(r *query, ni int32, ip, kappa, parentRadius float64) frontierNode {
	n := &s.tree.nodes[ni]
	rad := n.radius
	key := math.Abs(ip)
	if s.opts.Preference == core.PrefLowerBound {
		key -= r.rscale * rad
	} else {
		if rad == 0 {
			rad = parentRadius
		} else if s.tree.kind == BC && n.isLeaf() {
			rad = s.leafRadius(n)
		}
		if !n.isLeaf() {
			rad *= 2
		}
		if rad > 0 {
			key /= rad
		}
	}
	return frontierNode{key: key, ip: ip, kappa: kappa, ni: ni}
}

// pushFrontier adds e to the frontier and sifts it up the heap.
func (s *Searcher) pushFrontier(e frontierNode) {
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

// leafRadius is the radius the frontier ranks BC leaf n by: the derived
// radius of its median point, r_x at position (count-1)/2 of the leaf's
// descending order, when that lies strictly between zero and the leaf's
// radius, and the leaf's radius otherwise. It is read off the stored codes,
// so a loaded or mapped tree ranks its leaves as the built one does.
func (s *Searcher) leafRadius(n *nodeRec) float64 {
	g := s.sec.grid(n)
	m := int(n.start) + int(n.count()-1)/2
	if mid := g.Radius(s.sec.xcos[m], s.sec.xsin[m]); mid > 0 && mid < n.radius {
		return mid
	}
	return n.radius
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

// scanLeaf implements Algorithm 5 lines 18-26 at leaf n for the active
// queries act (ips and kappa as in step), over the leaf's contiguous,
// radius-sorted storage, each query against its own collector. First the
// point-level ball bound (Corollary 1, strict; vec.BallCutoff) cuts each
// query's prefix of the leaf in one binary search. A call that lists rows
// (see Searcher.begin) then verifies each query's list of its prefix (see
// list). Every other call verifies each query's prefix, capped by the budget
// left: whole tiles of vec.TileQueries queries of a tiled call through the
// multi-query kernel (see verifyTile), every other query — one left over
// past the last tile, each of a group smaller than a tile, a single Search —
// in one verify call.
//
// Every bound is evaluated against the λ at leaf entry; λ only shrinks during
// the scan, so the snapshot prunes conservatively and results stay exact. A
// cut reads only its own query's collector, which no other query's pushes
// reach, so cutting every prefix before verifying any is cutting in turn:
// results and counters are those of scanning query by query. A profile is
// charged the cuts and lists as bound time and the rest as verification.
func (s *Searcher) scanLeaf(n *nodeRec, act []int32, ips []float64, kappa float64) {
	var t0 time.Time
	if s.opts.Profile != nil {
		t0 = time.Now()
	}
	sec, start, count := s.sec, int(n.start), int(n.count())
	grid := sec.grid(n)
	cuts := s.scr.Cuts(len(act))
	for j, qi := range act {
		r := &s.qs[qi]
		r.st.LeavesVisited++
		absIP := math.Max(math.Abs(ips[j])-r.qnorm*kappa, 0) // the least |<q, N.c>| can be
		m := count
		if !s.opts.DisablePointBall {
			m = vec.BallCutoff(absIP, r.rscale, r.tk.Lambda(), &grid, sec.xcos[start:start+count], sec.xsin[start:start+count])
			r.st.PrunedPoints += int64(count - m)
		}
		if s.lists {
			s.list(r, n, &grid, absIP, m, &t0)
			continue
		}
		cuts[j] = min(m, s.left(r))
		r.st.IPCount += int64(cuts[j])
		r.st.Candidates += int64(cuts[j])
	}
	if s.lists {
		return
	}
	s.lap(&t0, core.PhaseBound)
	j := 0
	for ; s.tiled && j+vec.TileQueries <= len(act); j += vec.TileQueries {
		s.verifyTile(start, act[j:j+vec.TileQueries], cuts[j:j+vec.TileQueries])
	}
	for ; j < len(act); j++ {
		s.verify(&s.qs[act[j]], start, start+cuts[j])
	}
	s.lap(&t0, core.PhaseVerify)
}

// list verifies for query r the rows of leaf n's prefix [0, m) that its list
// stages keep, in this order: the opted-in cone bound (Theorem 3, the fused
// vec.ConeSelect kernel) drops single rows of the prefix; the liveness bitmap
// (see SearchLive) and the compiled predicate drop the rows they do not
// admit; and the Filter closure is asked about what is left, in leaf order,
// until the budget left has been accepted — a rejected id costs no inner
// product and no budget, and an accept-all Filter sees exactly the verified
// candidates. A list that is still a whole prefix is verified in one block
// (see verify), any other one Dot per row. t0 is the profile's clock (lap).
//
// The cone bound takes the query's projection onto the leaf centre's
// direction, ||q|| cos theta = <q, N.c> / ||N.c||, at the least magnitude
// absIP allows (only the magnitude enters the bound), and the rejection that
// goes with it: the smaller the projection the larger the rejection, so both
// err toward a lower bound.
func (s *Searcher) list(r *query, n *nodeRec, g *vec.ConeGrid, absIP float64, m int, t0 *time.Time) {
	sec, start := s.sec, int(n.start)
	sel := s.sel[:0]
	if s.opts.PointCone && n.centerNorm > 0 {
		qcos := absIP / n.centerNorm
		qsin := vec.Rejection(r.qnorm*r.qnorm, qcos, len(r.q))
		sel = vec.ConeSelect(qcos, qsin, r.tk.Lambda(), g, sec.xcos[start:start+m], sec.xsin[start:start+m], sel)
		r.st.PrunedPoints += int64(m - len(sel))
	} else {
		for i := range m {
			sel = append(sel, int32(i))
		}
	}
	live, pred, filter, left := s.live, s.pred, s.opts.Filter, s.left(r)
	kept := sel[:0]
	for _, i := range sel {
		if len(kept) == left {
			break
		}
		if id := sec.ids[start+int(i)]; (live == nil || live.Has(id)) && (pred == nil || pred.Match(id)) && (filter == nil || filter(id)) {
			kept = append(kept, i)
		}
	}
	s.sel = kept // keep the grown capacity for the next leaf
	s.lap(t0, core.PhaseBound)
	if v := len(kept); v > 0 && int(kept[v-1]) == v-1 {
		s.verify(r, start, start+v)
	} else {
		for _, i := range kept {
			pos := start + int(i)
			r.tk.Push(sec.ids[pos], math.Abs(vec.Dot(r.q, sec.points.Row(pos))))
		}
	}
	r.st.IPCount += int64(len(kept))
	r.st.Candidates += int64(len(kept))
	s.lap(t0, core.PhaseVerify)
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

// left is how many candidates the budget still allows query r.
func (s *Searcher) left(r *query) int {
	if s.opts.Budget > 0 {
		return int(int64(s.opts.Budget) - r.st.Candidates)
	}
	return math.MaxInt
}

// lap charges a profiled call's time since *t0 to phase and restarts the
// clock there.
func (s *Searcher) lap(t0 *time.Time, phase core.Phase) {
	if s.opts.Profile != nil {
		now := time.Now()
		s.opts.Profile.Add(phase, now.Sub(*t0))
		*t0 = now
	}
}
