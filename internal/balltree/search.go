package balltree

import (
	"math"
	"time"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// Search answers a top-k P2HNNS query with Algorithm 5: branch-and-bound
// over the ball hierarchy — depth-first when exact, best-first from one
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
//     cone pairs imply, vec.PointRadius), and the
//     point-level cone bound (Theorem 3) prunes single points it misses via
//     the fused vec.ConeSelect kernel; survivors are verified by one blocked
//     vec.DotBlock call when the whole prefix survives.
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
	s := t.acquireSearcher()
	res, st := s.Search(q, opts, nil)
	t.releaseSearcher(s)
	return res, st
}

// Searcher is a reusable single-query executor over one tree: the top-k
// collector and the per-leaf scratch persist across calls, so steady-state
// search allocates nothing beyond growth of the caller's dst. A Searcher is
// not safe for concurrent use; acquire one per goroutine (Tree.Search pools
// them automatically).
type Searcher struct {
	tree    *Tree
	q       []float32
	qnorm   float64
	sqQnorm float64
	tk      core.TopK
	st      core.Stats
	opts    core.SearchOptions
	buf     []float64 // per-leaf scratch for blocked inner products
	sel     []int32   // per-leaf scratch for cone-bound survivors

	frontier []frontierNode // budgeted searches: min-heap of unopened nodes

	// Quantized-filter state, live only while useQuant is set: qf is the
	// query's fitted integer filter (see quant.CodeFilter).
	qf       quant.CodeFilter
	useQuant bool

	// Predicate state, live only while opts.Pred is set on a tree with an
	// attribute store: pred is the predicate compiled against the store,
	// usePush gates the per-node summary skip.
	pred    *attr.Prog
	usePush bool
}

// NewSearcher returns a reusable executor bound to the tree.
func (t *Tree) NewSearcher() *Searcher { return &Searcher{tree: t} }

func (t *Tree) acquireSearcher() *Searcher {
	s := t.searchers.Get()
	s.tree = t
	return s
}

func (t *Tree) releaseSearcher(s *Searcher) { t.searchers.Put(s) }

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
	opts = s.tree.normalize(opts)
	s.q = q
	s.qnorm = vec.Norm(q)
	s.sqQnorm = s.qnorm * s.qnorm
	s.opts = opts
	s.st = core.Stats{}
	s.tk.Init(opts.K)
	run := s.preparePred()
	// The quantized filter applies to exact scans only: budgeted searches
	// keep the float path so "candidates verified" keeps meaning the same
	// work, and Filter-closure searches stay point-at-a-time. A declarative
	// predicate composes with it (rows are predicate-filtered before the
	// code kernel). Results are identical either way (the filter is exact),
	// which the quantized-vs-float equality tests pin down.
	s.useQuant = s.tree.qz != nil && opts.Filter == nil && opts.Budget <= 0 &&
		!opts.DisableQuantFilter
	if run {
		if s.useQuant {
			s.tree.qz.Fit(&s.qf, q)
		}
		ip := vec.Dot(q, s.tree.centers.Row(0))
		s.st.IPCount++
		if opts.Budget > 0 {
			s.bestFirst(ip)
		} else {
			s.visit(0, ip, 0)
		}
	}
	// Drop caller-owned references so the pooled Searcher cannot pin them.
	s.q = nil
	s.opts.Filter = nil
	s.opts.Profile = nil
	s.opts.Cancel = nil
	s.opts.Pred = nil
	s.pred = nil
	s.usePush = false
	return s.tk.DrainInto(dst), s.st
}

// preparePred resolves opts.Pred against the tree's attribute store. It
// reports whether the traversal should run at all: a predicate on a tree
// without attributes constant-folds against the empty payload — it either
// accepts every point (and is dropped) or rejects every point (empty result,
// no traversal).
func (s *Searcher) preparePred() bool {
	s.pred, s.usePush = nil, false
	if s.opts.Pred == nil {
		return true
	}
	if s.tree.attrs == nil {
		return s.opts.Pred.MatchesEmpty()
	}
	s.pred = s.tree.attrs.Compile(s.opts.Pred)
	s.usePush = s.tree.attrSums != nil
	return true
}

// accept reports whether id passes the predicate and the caller filter —
// exactly the acceptance an equivalent Filter closure would compute, which
// is what keeps pushdown results bitwise equal to post-filtering.
func (s *Searcher) accept(id int32) bool {
	if s.pred != nil && !s.pred.Match(id) {
		return false
	}
	return s.opts.Filter == nil || s.opts.Filter(id)
}

// scratch returns a distance buffer of at least m entries, reused across the
// leaves one query visits.
func (s *Searcher) scratch(m int) []float64 {
	if cap(s.buf) < m {
		s.buf = make([]float64, m)
	}
	return s.buf[:m]
}

// step evaluates one node for both drivers. ip is <q, center(ni)> as the
// caller knows it: computed from the centre for the root and for left
// children (and for a Ball tree's right children), derived via Lemma 2 for a
// BC tree's right children. kappa bounds, per unit of ||q||, how far a derived
// ip can be from the product with the centre the node's radius and leaf
// arrays were measured from (see centerStep): zero for a computed product,
// and for the right child of N
//
//	kappa_right = (|N|/|right|) * (kappa_N + centerStep*||N.c||),
//
// N's own uncertainty plus the rounding of N's stored centre, both amplified
// by the division. It depends on the tree alone, not on the query. A bound
// takes ip at its least favourable: the centre is only known to lie
// |ip| - kappa*||q|| from the hyperplane.
//
// A node that is skipped by the attribute summaries, pruned, or a leaf
// (scanned here) is finished and step reports expand == false; for a
// surviving internal node it returns the children's inner products and the
// right child's kappa (the left child's is zero), and leaves the order in
// which they are opened — and the polling of opts.Cancel between nodes — to
// the driver. Pruning is strict (lb > λ): candidates tied with the k-th best
// distance reach the collector, whose canonical (Dist, ID) order decides —
// the invariant that makes exact results independent of traversal order (see
// internal/exec).
func (s *Searcher) step(ni int32, ip, kappa float64) (n *nodeRec, ipl, ipr, kappaR float64, expand bool) {
	t := s.tree
	n = &t.nodes[ni]
	if s.usePush && t.attrSums.Node(ni, s.pred) == attr.TriNo {
		// Predicate pushdown: the node's attribute summaries prove no point
		// under it can match, so the whole subtree is skipped. The skip only
		// removes points a per-row filter would have rejected anyway, so the
		// accepted-candidate sequence — and with it the results, budgeted or
		// not — is unchanged.
		s.st.FilterSkippedNodes++
		s.st.FilterSkippedPoints += int64(n.count())
		return n, 0, 0, 0, false
	}
	s.st.NodesVisited++
	offset := math.Abs(ip) - s.qnorm*kappa
	if offset-s.qnorm*n.radius > s.tk.Lambda() { // a negative bound never prunes, no max needed
		s.st.PrunedNodes++
		return n, 0, 0, 0, false
	}
	if n.isLeaf() {
		s.scanWithPruning(n, math.Max(offset, 0))
		return n, 0, 0, 0, false
	}

	var start time.Time
	if s.opts.Profile != nil {
		start = time.Now()
	}
	ipl = vec.Dot(s.q, t.centers.Row(int(n.leftRow)))
	s.st.IPCount++
	if t.kind == Ball {
		ipr = vec.Dot(s.q, t.centers.Row(int(n.right)))
		s.st.IPCount++
	} else {
		// Lemma 2: <q, rc.c> = (|N| <q, N.c> - |lc| <q, lc.c>) / |rc|.
		cn := float64(n.count())
		cl := float64(t.nodes[ni+1].count())
		cr := float64(t.nodes[n.right].count())
		ipr = (cn*ip - cl*ipl) / cr
		kappaR = cn / cr * (kappa + centerStep*n.centerNorm)
		s.st.CollabIPs++
	}
	if s.opts.Profile != nil {
		s.opts.Profile.Add(core.PhaseBound, time.Since(start))
	}
	return n, ipl, ipr, kappaR, true
}

// visit is the exact driver: SubBCTreeSearch (SubBallTreeSearch for the Ball
// kind), the paper's depth-first recursion with the preferred child first.
func (s *Searcher) visit(ni int32, ip, kappa float64) {
	if s.opts.Canceled() {
		return // deadline fired: keep what the collector already holds
	}
	n, ipl, ipr, kappaR, expand := s.step(ni, ip, kappa)
	if !expand {
		return
	}
	if s.preferRight(ni, ipl, ipr) {
		s.visit(n.right, ipr, kappaR)
		s.visit(ni+1, ipl, 0)
	} else {
		s.visit(ni+1, ipl, 0)
		s.visit(n.right, ipr, kappaR)
	}
}

// preferRight decides the branch order under node ni (Algorithm 5 lines
// 12-17).
func (s *Searcher) preferRight(ni int32, ipl, ipr float64) bool {
	if s.opts.Preference == core.PrefLowerBound {
		lbl := math.Abs(ipl) - s.qnorm*s.tree.nodes[ni+1].radius
		lbr := math.Abs(ipr) - s.qnorm*s.tree.nodes[s.tree.nodes[ni].right].radius
		if lbl < 0 {
			lbl = 0
		}
		if lbr < 0 {
			lbr = 0
		}
		return lbr < lbl
	}
	return math.Abs(ipr) < math.Abs(ipl)
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
// are opened.
func (s *Searcher) bestFirst(ip float64) {
	s.frontier = s.frontier[:0]
	s.pushFrontier(0, ip, 0, 0)
	for len(s.frontier) > 0 && s.opts.BudgetLeft(s.st.Candidates) && !s.opts.Canceled() {
		e := s.popFrontier()
		if n, ipl, ipr, kappaR, expand := s.step(e.ni, e.ip, e.kappa); expand {
			s.pushFrontier(e.ni+1, ipl, 0, n.radius)
			s.pushFrontier(n.right, ipr, kappaR, n.radius)
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
func (s *Searcher) pushFrontier(ni int32, ip, kappa, parentRadius float64) {
	r := s.tree.nodes[ni].radius
	key := math.Abs(ip)
	if s.opts.Preference == core.PrefLowerBound {
		key -= s.qnorm * r
	} else {
		if r == 0 {
			r = parentRadius
		}
		if r > 0 {
			key /= r
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
// radius-sorted storage of the leaf, blocked: the ball bound cuts the tail of
// the leaf in one binary search, the fused cone kernel selects survivors in
// the remaining prefix, and the survivors are verified either by one
// DotBlock call (when the whole prefix survives, the common case on hard
// leaves) or point by point (when the cone bound thinned them out). Bounds
// are evaluated against the λ at leaf entry; λ only shrinks during the scan,
// so the snapshot prunes conservatively and results stay exact. absIP is the
// least |<q, N.c>| can be given what step knows of it.
func (s *Searcher) scanWithPruning(n *nodeRec, absIP float64) {
	s.st.LeavesVisited++
	var leafStart time.Time
	var verifyDur time.Duration
	profiling := s.opts.Profile != nil
	if profiling {
		leafStart = time.Now()
	}

	if s.opts.Filter != nil || s.pred != nil {
		// Predicate searches with the quantized mirror keep the code kernel:
		// rows are predicate-filtered first, then code-selected (useQuant
		// already implies Filter == nil and no budget).
		if s.pred != nil && s.useQuant && s.tk.Full() {
			verifyDur = s.scanPredQuant(n, absIP)
		} else {
			verifyDur = s.scanFiltered(n, absIP)
		}
		if profiling {
			s.opts.Profile.Add(core.PhaseVerify, verifyDur)
			s.opts.Profile.Add(core.PhaseBound, time.Since(leafStart)-verifyDur)
		}
		return
	}

	start := int(n.start)
	lambda := s.tk.Lambda()

	// Corollary 1: r_x is descending, so the ball bound ascends along the
	// leaf; everything past the cutoff is pruned in a batch.
	m := s.ballCutoff(n, absIP, lambda)

	// Theorem 3 via the fused kernel: select the survivors of the prefix.
	useCone := !s.opts.DisablePointCone && n.centerNorm > 0
	var sel []int32
	dense := true // all of [0, m) survived; allows one blocked verification
	if useCone && m > 0 {
		qcos, qsin := s.coneOf(n, absIP)
		sel = vec.ConeSelect(qcos, qsin, lambda,
			s.tree.xcos[start:start+m], s.tree.xsin[start:start+m], s.sel[:0])
		s.sel = sel // keep the grown capacity for the next leaf
		s.st.PrunedPoints += int64(m - len(sel))
		dense = len(sel) == m
	}

	// Quantized filter: one integer-kernel pass over what the geometric
	// bounds left standing (the whole prefix, or the cone survivors). Like
	// them it prunes against the λ snapshot and needs a finite λ to act.
	if s.useQuant && m > 0 && s.tk.Full() {
		d := s.tree.points.D
		if dense {
			sel = vec.CodeSelect(s.tree.codes[start*d:(start+m)*d], d,
				s.qf.W, s.qf.Base, s.qf.InvS, s.qf.Eps, lambda, s.sel[:0])
			s.sel = sel
			s.st.PrunedPoints += int64(m - len(sel))
			dense = len(sel) == m
		} else if len(sel) > 0 {
			before := len(sel)
			sel = vec.CodeSelectIdx(s.tree.codes[start*d:(start+m)*d], d,
				s.qf.W, s.qf.Base, s.qf.InvS, s.qf.Eps, lambda, sel)
			s.sel = sel
			s.st.PrunedPoints += int64(before - len(sel))
		}
	}

	// Cap verification work by the remaining candidate budget.
	verify := m
	if !dense {
		verify = len(sel)
	}
	if s.opts.Budget > 0 {
		if left := int(int64(s.opts.Budget) - s.st.Candidates); left < verify {
			verify = left
		}
	}
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
	d := s.tree.points.D
	if dense {
		rows := s.tree.points.Data[start*d : (start+verify)*d]
		dists := s.scratch(verify)
		vec.DotBlock(s.q, rows, dists)
		for i := 0; i < verify; i++ {
			s.tk.Push(s.tree.ids[start+i], math.Abs(dists[i]))
		}
	} else {
		for _, i := range sel[:verify] {
			pos := start + int(i)
			v := math.Abs(vec.Dot(s.q, s.tree.points.Row(pos)))
			s.tk.Push(s.tree.ids[pos], v)
		}
	}
	s.st.IPCount += int64(verify)
	s.st.Candidates += int64(verify)
	if profiling {
		verifyDur = time.Since(t0)
		s.opts.Profile.Add(core.PhaseVerify, verifyDur)
		s.opts.Profile.Add(core.PhaseBound, time.Since(leafStart)-verifyDur)
	}
}

// ballCutoff returns how many leading points of leaf n the point-level ball
// bound keeps against lambda, and counts the rest as pruned.
func (s *Searcher) ballCutoff(n *nodeRec, absIP, lambda float64) int {
	if s.opts.DisablePointBall {
		return int(n.count())
	}
	t := s.tree
	m := vec.BallCutoff(absIP, s.qnorm, lambda, n.centerNorm, t.xcos[n.start:n.end], t.xsin[n.start:n.end])
	s.st.PrunedPoints += int64(int(n.count()) - m)
	return m
}

// coneOf returns the query's side of the cone bound for leaf n: its
// projection onto the leaf centre's direction, ||q|| cos theta = <q, N.c> /
// ||N.c||, taken at the least magnitude absIP allows (only the magnitude
// enters the bound), and the rejection that goes with it — the smaller the
// projection the larger the rejection, so both err toward a lower bound.
func (s *Searcher) coneOf(n *nodeRec, absIP float64) (qcos, qsin float64) {
	qcos = absIP / n.centerNorm
	return qcos, vec.Rejection(s.sqQnorm, qcos, len(s.q))
}

// scanFiltered is the point-at-a-time path for filtered queries (a Filter
// closure, a compiled predicate, or both): rejected ids must not cost an
// inner product nor count against the budget, so the bounds are evaluated per
// point with the evolving λ, as in Algorithm 5. It returns the time spent on
// verification for the profile's phase split.
func (s *Searcher) scanFiltered(n *nodeRec, absIP float64) time.Duration {
	profiling := s.opts.Profile != nil
	var verifyDur time.Duration
	start := int(n.start)
	count := int(n.count())
	useBall := !s.opts.DisablePointBall
	useCone := !s.opts.DisablePointCone && n.centerNorm > 0
	var qcos, qsin float64
	if useCone {
		qcos, qsin = s.coneOf(n, absIP)
	}
	// The ball bound ascends along the leaf, so against any one λ it cuts the
	// leaf at one index; λ moves only when a candidate enters the collector,
	// and only down, which moves the cut up. Tracking the cut costs a binary
	// search per move instead of a derived radius per point.
	m, cutLambda := count, math.Inf(1)
	for i := 0; i < count; i++ {
		if !s.opts.BudgetLeft(s.st.Candidates) {
			break
		}
		if useBall {
			if lambda := s.tk.Lambda(); lambda != cutLambda {
				cutLambda = lambda
				m = vec.BallCutoff(absIP, s.qnorm, lambda, n.centerNorm,
					s.tree.xcos[n.start:n.end], s.tree.xsin[n.start:n.end])
			}
			if i >= m {
				s.st.PrunedPoints += int64(count - i)
				break
			}
		}
		if useCone {
			lbCone := vec.ConeBound(qcos, qsin, float64(s.tree.xcos[start+i]), float64(s.tree.xsin[start+i]))
			if lbCone > s.tk.Lambda() {
				s.st.PrunedPoints++
				continue
			}
		}
		id := s.tree.ids[start+i]
		if !s.accept(id) {
			continue
		}
		var t0 time.Time
		if profiling {
			t0 = time.Now()
		}
		v := math.Abs(vec.Dot(s.q, s.tree.points.Row(start+i)))
		s.st.IPCount++
		s.st.Candidates++
		s.tk.Push(id, v)
		if profiling {
			verifyDur += time.Since(t0)
		}
	}
	return verifyDur
}

// scanPredQuant is the quantized leaf scan for predicate searches: the ball
// cutoff trims the radius-sorted tail, the remaining rows are filtered by the
// compiled predicate, the cone bound prunes single survivors, and the integer
// code kernel (vec.CodeSelectIdx) removes rows whose error-bounded approximate
// score provably cannot beat the current k-th best, leaving only the remainder
// for float verification. All bounds prune against the λ snapshot at leaf
// entry — conservative, as in scanWithPruning — and predicate-with-quant
// searches are unbudgeted, so results stay bitwise equal to the unquantized
// filtered scan. Returns the verification time for the profile's phase split.
func (s *Searcher) scanPredQuant(n *nodeRec, absIP float64) time.Duration {
	var verifyDur time.Duration
	start := int(n.start)
	lambda := s.tk.Lambda()
	m := s.ballCutoff(n, absIP, lambda)
	useCone := !s.opts.DisablePointCone && n.centerNorm > 0
	var qcos, qsin float64
	if useCone {
		qcos, qsin = s.coneOf(n, absIP)
	}
	if cap(s.sel) < m {
		s.sel = make([]int32, 0, m)
	}
	sel := s.sel[:0]
	for i := 0; i < m; i++ {
		if !s.pred.Match(s.tree.ids[start+i]) {
			continue
		}
		if useCone {
			lbCone := vec.ConeBound(qcos, qsin, float64(s.tree.xcos[start+i]), float64(s.tree.xsin[start+i]))
			if lbCone > lambda {
				s.st.PrunedPoints++
				continue
			}
		}
		sel = append(sel, int32(i))
	}
	if len(sel) > 0 {
		d := s.tree.points.D
		codes := s.tree.codes[start*d : (start+m)*d]
		before := len(sel)
		sel = vec.CodeSelectIdx(codes, d, s.qf.W, s.qf.Base, s.qf.InvS, s.qf.Eps,
			lambda, sel)
		s.st.PrunedPoints += int64(before - len(sel))
	}
	s.sel = sel
	var t0 time.Time
	if s.opts.Profile != nil {
		t0 = time.Now()
	}
	for _, i := range sel {
		pos := start + int(i)
		v := math.Abs(vec.Dot(s.q, s.tree.points.Row(pos)))
		s.tk.Push(s.tree.ids[pos], v)
	}
	s.st.IPCount += int64(len(sel))
	s.st.Candidates += int64(len(sel))
	if s.opts.Profile != nil {
		verifyDur = time.Since(t0)
	}
	return verifyDur
}
