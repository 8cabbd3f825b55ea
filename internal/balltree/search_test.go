package balltree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// boundWalk walks tree for q the way a search does — the root's and every left
// child's inner product computed from the stored centre, a right child's
// computed too on a Ball tree and derived by Lemma 2 with its kappa on a BC
// tree — without pruning anything, and calls visit for every node with the
// product and kappa a search would hold there.
func boundWalk(tree *Tree, q []float32, visit func(ni int32, ip, kappa float64)) {
	var walk func(ni int32, ip, kappa float64)
	walk = func(ni int32, ip, kappa float64) {
		visit(ni, ip, kappa)
		n := &tree.nodes[ni]
		if n.isLeaf() {
			return
		}
		ipl := vec.Dot(q, tree.sec().centers.Row(int(n.leftRow)))
		var ipr, kappaR float64
		if tree.kind == Ball {
			ipr = vec.Dot(q, tree.sec().centers.Row(int(n.right)))
		} else {
			cn := float64(n.count())
			cl := float64(tree.nodes[ni+1].count())
			cr := float64(tree.nodes[n.right].count())
			ipr = (cn*ip - cl*ipl) / cr
			kappaR = cn / cr * (kappa + centerStep*n.centerNorm)
		}
		walk(ni+1, ipl, 0)
		walk(n.right, ipr, kappaR)
	}
	walk(0, vec.Dot(q, tree.sec().centers.Row(0)), 0)
}

// maxNorm is the largest norm among the tree's points; no centre exceeds it.
func maxNorm(tree *Tree) float64 {
	var m float64
	for p := 0; p < tree.N(); p++ {
		m = math.Max(m, vec.Norm(tree.sec().points.Row(p)))
	}
	return m
}

// offsetQueries returns nq lifted queries on unit normals whose offsets sit
// where the ball bounds' scale (ballScale, ||w|| + radiusSlack·||q||) parts
// most from the paper's ||q||. The even rows lie far from the lifted data:
// |b| is 10^4 times the data's scale (its largest raw norm) on row 0 and
// between 10 and 10^4 times it on the others, so ||w|| is a sliver of ||q||
// and radiusSlack·||q|| is the only rounding allowance a bound keeps. The odd
// rows pass through the origin, b = 0, where ||w|| = ||q||.
func offsetQueries(data *vec.Matrix, nq int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	d := data.D
	var scale float64
	for i := 0; i < data.N; i++ {
		scale = math.Max(scale, vec.Norm(data.Row(i)[:d-1]))
	}
	out := vec.NewMatrix(nq, d)
	for i := 0; i < nq; i++ {
		q := out.Row(i)
		for j := range q[:d-1] {
			q[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(q[:d-1])
		if i%2 == 1 {
			continue
		}
		b := 1e4 * scale
		if i > 0 {
			b = scale * math.Pow(10, 1+3*rng.Float64())
		}
		if i%4 == 2 {
			b = -b
		}
		q[d-1] = float32(b)
	}
	return out
}

// withOffsetQueries is offsetQueries(data, nq, seed) followed by queries.
func withOffsetQueries(data, queries *vec.Matrix, nq int, seed int64) *vec.Matrix {
	extra := offsetQueries(data, nq, seed)
	return &vec.Matrix{Data: slices.Concat(extra.Data, queries.Data), N: nq + queries.N, D: data.D}
}

// boundViolations evaluates, for one query, every bound a search of tree could
// evaluate — the node-level ball bound with kappa (Theorem 2) at every node
// and, on a BC tree, the point-level ball (Corollary 1) and cone (Theorem 3)
// bounds of every point, each computed as Searcher.step and the leaf scans
// compute it, the ball bounds on the query's ballScale — and counts those
// above the |<q,x>| they claim to lie below. The only error admitted is what
// float64 rounding of the d-term inner products behind the truth and a
// computed <q,c> can amount to, 2d·2^-53 per product of norms; neither the
// coded storage nor a derived product gets an allowance, because the one
// rounds toward smaller bounds and the other carries its own.
// Theorem 4 (the cone bound dominates the ball bound) is about the paper's
// ball bound, the radius charged ||q||, and holds for any one pair; both
// bounds read the same decoded pair, the query's rejection carries its guard
// and the two bounds round differently, so that check gets a margin of that
// size. (The ball bound the search evaluates, on ballScale, may well be the
// tighter of the two.)
func boundViolations(tree *Tree, maxNorm float64, q []float32) (node, ball, cone, theorem4 int) {
	qnorm := vec.Norm(q)
	rscale := ballScale(q, qnorm)
	d := tree.Dim()
	scale := qnorm * 2 * maxNorm
	tol := 2 * float64(d) * 0x1p-53 * scale
	dominates := (0x1p-22 + 2*math.Sqrt(float64(d+1)*0x1p-49)) * scale
	minBelow := make([]float64, len(tree.nodes)) // min |<q,x>| under each node
	lbs := make([]float64, len(tree.nodes))
	boundWalk(tree, q, func(ni int32, ip, kappa float64) {
		n := &tree.nodes[ni]
		offset := math.Abs(ip) - qnorm*kappa
		lbs[ni] = offset - rscale*n.radius
		if !n.isLeaf() {
			return
		}
		absIP := math.Max(offset, 0)
		grid := tree.sec().grid(n)
		var qcos, qsin float64
		if n.centerNorm > 0 {
			qcos = absIP / n.centerNorm
			qsin = vec.Rejection(qnorm*qnorm, qcos, d)
		}
		minBelow[ni] = math.Inf(1)
		for pos := int(n.start); pos < int(n.end); pos++ {
			truth := math.Abs(vec.Dot(q, tree.sec().points.Row(pos)))
			minBelow[ni] = math.Min(minBelow[ni], truth)
			if tree.kind != BC {
				continue
			}
			r := grid.Radius(tree.sec().xcos[pos], tree.sec().xsin[pos])
			if lbBall := absIP - rscale*r; lbBall > truth+tol {
				ball++
			}
			if n.centerNorm == 0 {
				continue // the searches skip the cone bound here
			}
			xcos, xsin := grid.Pair(tree.sec().xcos[pos], tree.sec().xsin[pos])
			lbCone := vec.ConeBound(qcos, qsin, xcos, xsin)
			if lbCone > truth+tol {
				cone++
			}
			if lbCone < absIP-qnorm*r-dominates {
				theorem4++
			}
		}
	})
	for i := len(tree.nodes) - 1; i >= 0; i-- { // children before parents
		if n := &tree.nodes[i]; !n.isLeaf() {
			minBelow[i] = math.Min(minBelow[i+1], minBelow[n.right])
		}
		if lbs[i] > minBelow[i]+tol {
			node++
		}
	}
	return node, ball, cone, theorem4
}

func requireBoundsSound(t *testing.T, label string, tree *Tree, queries *vec.Matrix) {
	t.Helper()
	var node, ball, cone, theorem4 int
	norm := maxNorm(tree)
	for qi := 0; qi < queries.N; qi++ {
		n, b, c, t4 := boundViolations(tree, norm, queries.Row(qi))
		node, ball, cone, theorem4 = node+n, ball+b, cone+c, theorem4+t4
	}
	if node+ball+cone+theorem4 > 0 {
		t.Errorf("%s, %d queries: %d node-level ball, %d point-level ball and %d cone bounds above |<q,x>|; cone below ball %d times",
			label, queries.N, node, ball, cone, theorem4)
	}
}

// Property: the node-level ball bound never exceeds the true minimum
// |<x,q>| within the node (Theorem 2 soundness), with a right child's derived
// product discounted by its kappa, for hyperplanes near the data, far from it
// and through the origin (offsetQueries).
func TestQuickNodeBallBoundSound(t *testing.T) { forKinds(t, testQuickNodeBallBoundSound) }

func testQuickNodeBallBoundSound(t *testing.T, kind Kind) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		d := rng.Intn(12) + 2
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyClustered, RawDim: d, Clusters: 4}, n, seed)
		data := raw.AppendOnes()
		queries := withOffsetQueries(data, dataset.GenerateQueries(raw, 3, seed+1), 2, seed+2)
		requireBoundsSound(t, fmt.Sprintf("seed %d", seed), Build(data, kind, Config{LeafSize: 10, Seed: seed}), queries)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickPointBoundsSound checks, over random data and queries, that for
// every leaf point the two point-level bounds — evaluated, as the searches
// evaluate them, on the stored float32 arrays — are lower bounds of |<x,q>|
// (Theorems 2 and 3), for hyperplanes near the data, far from it and through
// the origin (offsetQueries); see boundViolations for what error is admitted.
func TestQuickPointBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 20
		d := rng.Intn(14) + 2
		family := []dataset.Family{dataset.FamilyClustered, dataset.FamilyUniform, dataset.FamilyHeavyTail}[rng.Intn(3)]
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: family, RawDim: d, Clusters: 4}, n, seed)
		data := raw.AppendOnes()
		queries := withOffsetQueries(data, dataset.GenerateQueries(raw, 3, seed+1), 2, seed+2)
		requireBoundsSound(t, fmt.Sprintf("seed %d", seed), Build(data, BC, Config{LeafSize: 16, Seed: seed}), queries)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// collabMisses measures Lemma 2 on a BC tree for one query: at every node it
// compares the inner product a search holds (derived down every right turn)
// with the product against the centre the node's bounds were measured from
// (nodeCenters) and against the float64 centroid of the node's points. It
// reports how many nodes miss the first by more than kappa*||q|| (must be
// none: that is what kappa claims), how many miss the second by more than
// kappa*||q|| plus the float32 rounding a centre accumulates per level of
// Lemma 1, and how many miss the first by more than radiusSlack covers.
func collabMisses(tree *Tree, centers *vec.Matrix, maxNorm float64, q []float32) (beyondKappa, beyondCentroid, beyondSlack int) {
	qnorm := vec.Norm(q)
	d := tree.Dim()
	// Float64 sums of the points under each node and the height of its
	// subtree, children before parents.
	sums := make([]float64, len(tree.nodes)*d)
	height := make([]int, len(tree.nodes))
	for i := len(tree.nodes) - 1; i >= 0; i-- {
		n := &tree.nodes[i]
		sum := sums[i*d : (i+1)*d]
		if n.isLeaf() {
			for pos := int(n.start); pos < int(n.end); pos++ {
				vec.AddInto(sum, tree.sec().points.Row(pos))
			}
			height[i] = 1
			continue
		}
		for j := range sum {
			sum[j] = sums[(i+1)*d+j] + sums[int(n.right)*d+j]
		}
		height[i] = 1 + max(height[i+1], height[n.right])
	}
	rounding := 0x1p-23 * maxNorm * qnorm // of one float32 centre, with room
	boundWalk(tree, q, func(ni int32, ip, kappa float64) {
		n := &tree.nodes[ni]
		miss := math.Abs(ip - vec.Dot(q, centers.Row(int(ni))))
		if miss > kappa*qnorm {
			beyondKappa++
		}
		if miss > radiusSlack*n.radius*qnorm {
			beyondSlack++
		}
		var centroidIP float64
		for j, v := range sums[int(ni)*d : (int(ni)+1)*d] {
			centroidIP += float64(q[j]) * v
		}
		centroidIP /= float64(n.count())
		if math.Abs(ip-centroidIP) > kappa*qnorm+float64(height[ni])*rounding {
			beyondCentroid++
		}
	})
	return beyondKappa, beyondCentroid, beyondSlack
}

// TestQuickCollabIPIdentity checks Lemma 2 on built trees, with the rounding
// it carries: the product a search derives for a node is within kappa*||q||
// of the product with the centre the node's bounds were measured from.
func TestQuickCollabIPIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 40
		d := rng.Intn(10) + 2
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyHeavyTail, RawDim: d}, n, seed)
		queries := dataset.GenerateQueries(raw, 2, seed+1)
		tree := Build(raw.AppendOnes(), BC, Config{LeafSize: 10, Seed: seed})
		centers, norm := nodeCenters(tree), maxNorm(tree)
		for qi := 0; qi < queries.N; qi++ {
			if beyondKappa, beyondCentroid, _ := collabMisses(tree, centers, norm, queries.Row(qi)); beyondKappa+beyondCentroid > 0 {
				t.Errorf("seed %d query %d: %d derived products beyond kappa of their centre's, %d beyond kappa and rounding of the centroid's",
					seed, qi, beyondKappa, beyondCentroid)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestExactCandidatesCeiling pins how much of the data an exact top-10 search
// verifies on the benchmark's corpus at a fifth of its size: a Sift surrogate
// of 10 000 points (seed 1) and 64 of its queries (seed 2), through Search
// with the default options. The ball bounds charging a radius ||w|| instead of
// ||q|| (ballScale) cut the candidates from 0.525 of n·queries to 0.411 on a
// BC tree and from 0.581 to 0.464 on a Ball tree; the ceilings sit between,
// so a bound that quietly loosens fails here while answers stay exact.
func TestExactCandidatesCeiling(t *testing.T) {
	raw := dataset.Dedup(dataset.Generate(dataset.ByName("Sift"), 10000, 1))
	queries := dataset.GenerateQueries(raw, 64, 2)
	normalizeRows(queries)
	data := raw.AppendOnes()
	for _, c := range []struct {
		kind    Kind
		ceiling float64
	}{{BC, 0.45}, {Ball, 0.50}} {
		tree := Build(data, c.kind, Config{Seed: 1})
		_, stats := searchEach(tree, queries, core.SearchOptions{K: 10})
		ratio := float64(sum(stats).Candidates) / float64(data.N*queries.N)
		t.Logf("%s: candidates %.4f of n·queries", c.kind, ratio)
		if ratio > c.ceiling {
			t.Errorf("%s: exact searches verify %.4f of n·queries, above the ceiling %.2f", c.kind, ratio, c.ceiling)
		}
	}
}

// TestFrontierRanksBCLeafByMedianRadius pins the budgeted frontier's key for
// a leaf. Two clusters of 20 points, of spread 0.05, lie either side of the
// hyperplane x = 9 in the plane: A around the origin, with one outlier 5 away
// along y that stretches its radius some twenty-fold, and B around (10, 0),
// which holds the true nearest neighbour. By the leaf radius, |<q,c>|/r ranks
// A first (about 9/4.8 against 1/0.14); by the radius of its median point a
// BC leaf ranks B first (about 9/0.24 against 1/0.06). A search whose budget
// is one leaf opens the leaf its key ranks first, and only that one: B on a
// BC tree, A on a Ball tree, which stores no point radii and keeps the leaf
// radius. A Save→Load twin and a mapped one answer alike, counters and all.
func TestFrontierRanksBCLeafByMedianRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows [][]float32
	cluster := func(x float32) {
		for range 20 {
			rows = append(rows, []float32{x + float32(0.05*rng.NormFloat64()), float32(0.05 * rng.NormFloat64())})
		}
	}
	cluster(0)
	cluster(10)
	const outlier = 40
	rows = append(rows, []float32{0, -5})
	data := vec.FromRows(rows).AppendOnes()
	q := []float32{1, 0, -9}
	want := bruteForce(data, vec.FromRows([][]float32{q}), core.SearchOptions{K: 1})[0]

	for _, c := range []struct {
		kind     Kind
		outlierA bool // whether the leaf opened holds the outlier
	}{{BC, false}, {Ball, true}} {
		tree := Build(data, c.kind, Config{LeafSize: 25, Seed: 1})
		if tree.Leaves() != 2 {
			t.Fatalf("%s: %d leaves, want 2", c.kind, tree.Leaves())
		}
		var a, b *nodeRec // the leaf with the outlier, the other one
		for _, ni := range []int32{1, tree.nodes[0].right} {
			n := &tree.nodes[ni]
			if slices.Contains(tree.sec().ids[n.start:n.end], outlier) {
				a = n
			} else {
				b = n
			}
		}
		if a == nil || b == nil || a.count() != 21 || b.count() != 20 {
			t.Fatalf("%s: the split did not part the clusters", c.kind)
		}
		opts := core.SearchOptions{K: 1, Budget: int(b.count())}
		if c.outlierA {
			opts.Budget = int(a.count())
		}
		res, st := tree.Search(q, opts)
		if st.LeavesVisited != 1 || st.Candidates != int64(opts.Budget) || len(res) != 1 {
			t.Fatalf("%s: %d leaves, %d candidates and %d results, want one leaf spent whole", c.kind, st.LeavesVisited, st.Candidates, len(res))
		}
		if got := res[0].ID == outlier || res[0].ID < 20; got != c.outlierA {
			t.Errorf("%s: a budget of one leaf verified the leaf with the outlier: %v, want %v", c.kind, got, c.outlierA)
		}
		if !c.outlierA && res[0] != want[0] {
			t.Errorf("%s: a budget of one leaf answers %v, want the true nearest %v", c.kind, res[0], want[0])
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, c.kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		for path, twin := range map[string]*Tree{"loaded": loaded, "mapped": mappedTwin(t, tree)} {
			if tres, tst := twin.Search(q, opts); !slices.Equal(tres, res) || tst != st {
				t.Errorf("%s %s: %v %+v, want %v %+v", c.kind, path, tres, tst, res, st)
			}
		}
	}
}

// TestFrontierRanksInternalNodeByDiameter pins the budgeted frontier's key
// for an internal node. Four leaves of ten points each lie in two subtrees,
// A around z = 50 and B around z = -50; a leaf is two clumps at y = ±1, so
// its radius, and its median point's, is about 1. The hyperplane is x = 0,
// and the leaves sit at x = 0.8 (A1) and -5 (A2), 0.5 (B1) and 6.5 (B2).
// The keys are about 0.68 for A (centre -2.1, radius 3.07), 1.11 for B
// (3.5, 3.16), and 0.8, 5, 0.5 and 6.5 for the leaves. Both orders open A
// first. Keyed against its radius, B then waits behind A1, which a budget of
// one leaf opens. Keyed against its diameter (0.55), B opens before A1, and B1
// (0.5) goes ahead of it. Both kinds open B1, and a Save→Load twin and a
// mapped one answer alike, counters and all.
func TestFrontierRanksInternalNodeByDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]float32
	leaf := func(x, z float32) {
		for i := range 10 {
			y := float32(1 - 2*(i%2))
			rows = append(rows, []float32{x, y + float32(0.01*rng.NormFloat64()), z + float32(0.01*rng.NormFloat64())})
		}
	}
	leaf(0.8, 50)  // A1: ids 0-9
	leaf(-5, 50)   // A2
	leaf(0.5, -50) // B1: ids 20-29
	leaf(6.5, -50) // B2
	data := vec.FromRows(rows).AppendOnes()
	q := []float32{1, 0, 0, 0}

	for _, kind := range []Kind{BC, Ball} {
		tree := Build(data, kind, Config{LeafSize: 10, Seed: 1})
		if tree.Leaves() != 4 {
			t.Fatalf("%s: %d leaves, want 4", kind, tree.Leaves())
		}
		for ni := range tree.nodes {
			if n := &tree.nodes[ni]; n.isLeaf() {
				ids := tree.sec().ids[n.start:n.end]
				if len(ids) != 10 || slices.ContainsFunc(ids, func(id int32) bool { return id/10 != ids[0]/10 }) {
					t.Fatalf("%s: the split did not part the leaves", kind)
				}
			}
		}
		opts := core.SearchOptions{K: 1, Budget: 10}
		res, st := tree.Search(q, opts)
		if st.LeavesVisited != 1 || st.Candidates != 10 || len(res) != 1 {
			t.Fatalf("%s: %d leaves, %d candidates and %d results, want one leaf spent whole", kind, st.LeavesVisited, st.Candidates, len(res))
		}
		if got := res[0].ID / 10; got != 2 {
			t.Errorf("%s: a budget of one leaf verified leaf %d, want B1 (2): internal nodes not keyed against their diameter", kind, got)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		for path, twin := range map[string]*Tree{"loaded": loaded, "mapped": mappedTwin(t, tree)} {
			if tres, tst := twin.Search(q, opts); !slices.Equal(tres, res) || tst != st {
				t.Errorf("%s %s: %v %+v, want %v %+v", kind, path, tres, tst, res, st)
			}
		}
	}
}
