package balltree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

// boundViolations evaluates, for one query, every bound a search of tree could
// evaluate — the node-level ball bound with kappa (Theorem 2) at every node
// and, on a BC tree, the point-level ball (Corollary 1) and cone (Theorem 3)
// bounds of every point, each computed as Searcher.step and the leaf scans
// compute it — and counts those above the |<q,x>| they claim to lie below. The
// only error admitted is what float64 rounding of the d-term inner products
// behind the truth and a computed <q,c> can amount to, 2d·2^-53 per product of
// norms; neither the coded storage nor a derived product gets an allowance,
// because the one rounds toward smaller bounds and the other carries its own.
// Theorem 4 (the cone bound dominates the ball bound) holds for any one pair,
// and both bounds read the same decoded pair; the query's rejection carries
// its guard and the two bounds round differently, so that check gets a
// margin of that size.
func boundViolations(tree *Tree, maxNorm float64, q []float32) (node, ball, cone, theorem4 int) {
	qnorm := vec.Norm(q)
	d := tree.Dim()
	scale := qnorm * 2 * maxNorm
	tol := 2 * float64(d) * 0x1p-53 * scale
	dominates := (0x1p-22 + 2*math.Sqrt(float64(d+1)*0x1p-49)) * scale
	minBelow := make([]float64, len(tree.nodes)) // min |<q,x>| under each node
	lbs := make([]float64, len(tree.nodes))
	boundWalk(tree, q, func(ni int32, ip, kappa float64) {
		n := &tree.nodes[ni]
		offset := math.Abs(ip) - qnorm*kappa
		lbs[ni] = offset - qnorm*n.radius
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
			lbBall := absIP - qnorm*grid.Radius(tree.sec().xcos[pos], tree.sec().xsin[pos])
			if lbBall > truth+tol {
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
			if lbCone < lbBall-dominates {
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
// product discounted by its kappa.
func TestQuickNodeBallBoundSound(t *testing.T) { forKinds(t, testQuickNodeBallBoundSound) }

func testQuickNodeBallBoundSound(t *testing.T, kind Kind) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		d := rng.Intn(12) + 2
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyClustered, RawDim: d, Clusters: 4}, n, seed)
		queries := dataset.GenerateQueries(raw, 3, seed+1)
		requireBoundsSound(t, fmt.Sprintf("seed %d", seed), Build(raw.AppendOnes(), kind, Config{LeafSize: 10, Seed: seed}), queries)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickPointBoundsSound checks, over random data and queries, that for
// every leaf point the two point-level bounds — evaluated, as the searches
// evaluate them, on the stored float32 arrays — are lower bounds of |<x,q>|
// (Theorems 2 and 3); see boundViolations for what error is admitted.
func TestQuickPointBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 20
		d := rng.Intn(14) + 2
		family := []dataset.Family{dataset.FamilyClustered, dataset.FamilyUniform, dataset.FamilyHeavyTail}[rng.Intn(3)]
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: family, RawDim: d, Clusters: 4}, n, seed)
		queries := dataset.GenerateQueries(raw, 3, seed+1)
		requireBoundsSound(t, fmt.Sprintf("seed %d", seed), Build(raw.AppendOnes(), BC, Config{LeafSize: 16, Seed: seed}), queries)
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
