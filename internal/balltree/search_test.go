package balltree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

const distTol = 1e-9

// sameDists checks two result lists agree on distances (ids may differ under
// exact ties).
func sameDists(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := math.Abs(a[i].Dist - b[i].Dist)
		scale := math.Max(1, math.Max(a[i].Dist, b[i].Dist))
		if d > distTol*scale {
			return false
		}
	}
	return true
}

// allVariants enumerates the Figure 8 ablation combinations; with an
// unlimited budget all must be exact.
func allVariants() []core.SearchOptions {
	var out []core.SearchOptions
	for _, noBall := range []bool{false, true} {
		for _, noCone := range []bool{false, true} {
			out = append(out, core.SearchOptions{DisablePointBall: noBall, DisablePointCone: noCone})
		}
	}
	return out
}

func TestSearchExactMatchesLinearScanAllVariants(t *testing.T) {
	forKinds(t, testSearchExactMatchesLinearScanAllVariants)
}

func testSearchExactMatchesLinearScanAllVariants(t *testing.T, kind Kind) {
	for _, family := range []dataset.Family{dataset.FamilyClustered, dataset.FamilyUniform, dataset.FamilyHeavyTail, dataset.FamilyLowRank, dataset.FamilySparse} {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: family, RawDim: 20, Clusters: 8}, 600, 1)
		raw = dataset.Dedup(raw)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 10, 2)
		tree := Build(data, kind, Config{LeafSize: 25, Seed: 3})
		scan := linearscan.New(data)
		for _, k := range []int{1, 5, 10} {
			for i := 0; i < queries.N; i++ {
				q := queries.Row(i)
				want, _ := scan.Search(q, core.SearchOptions{K: k})
				for _, variant := range allVariants() {
					variant.K = k
					got, _ := tree.Search(q, variant)
					if !sameDists(got, want) {
						t.Fatalf("%v k=%d query %d variant %+v: tree=%v scan=%v",
							family, k, i, variant, got, want)
					}
				}
			}
		}
	}
}

func TestSearchBothPreferencesExact(t *testing.T) { forKinds(t, testSearchBothPreferencesExact) }

func testSearchBothPreferencesExact(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 16, Clusters: 6}, 400, 5)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 10, 6)
	tree := Build(data, kind, Config{LeafSize: 20, Seed: 7})
	scan := linearscan.New(data)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		want, _ := scan.Search(q, core.SearchOptions{K: 3})
		for _, pref := range []core.Preference{core.PrefCenter, core.PrefLowerBound} {
			got, _ := tree.Search(q, core.SearchOptions{K: 3, Preference: pref})
			if !sameDists(got, want) {
				t.Fatalf("query %d pref %v: tree=%v scan=%v", i, pref, got, want)
			}
		}
	}
}

func TestSearchPrunesNodes(t *testing.T) { forKinds(t, testSearchPrunesNodes) }

func testSearchPrunesNodes(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 16}, 4000, 8)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 5, 9)
	tree := Build(data, kind, Config{LeafSize: 50, Seed: 1})
	var st core.Stats
	for i := 0; i < queries.N; i++ {
		_, s := tree.Search(queries.Row(i), core.SearchOptions{K: 1})
		st.Add(s)
	}
	if st.Candidates >= int64(queries.N)*int64(data.N) {
		t.Fatal("no pruning happened at all")
	}
	if st.PrunedNodes == 0 {
		t.Fatal("expected pruned subtrees on clustered data")
	}
	// Pruning must beat the exhaustive scan by a wide margin on clustered data.
	if float64(st.Candidates) > 0.8*float64(int64(queries.N)*int64(data.N)) {
		t.Fatalf("pruning too weak: %d candidates of %d", st.Candidates, int64(queries.N)*int64(data.N))
	}
}

// TestPointPruningReducesCandidates checks the point of Section IV-B: with
// the point-level bounds on, fewer candidates are verified than without.
func TestPointPruningReducesCandidates(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 24, Clusters: 16}, 5000, 8)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 10, 9)
	tree := Build(data, BC, Config{LeafSize: 100, Seed: 1})
	var with, without core.Stats
	for i := 0; i < queries.N; i++ {
		_, s1 := tree.Search(queries.Row(i), core.SearchOptions{K: 10})
		with.Add(s1)
		_, s2 := tree.Search(queries.Row(i), core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true})
		without.Add(s2)
	}
	if with.Candidates >= without.Candidates {
		t.Fatalf("point-level pruning did not reduce verification: %d >= %d", with.Candidates, without.Candidates)
	}
	if with.PrunedPoints == 0 {
		t.Fatal("expected pruned points on clustered data")
	}
}

// TestCollabIPHalvesInnerProducts checks Theorem 5 on the counters: a BC
// search makes one O(d) centre product for the root and one per expanded node
// (the left child's), and every product it derives by Lemma 2 stands for one
// it did not make — C_N -> (C_N+1)/2 over the same traversal. That the
// traversal without Lemma 2 is the same one, with exactly that C_N, is
// TestBallIsAblatedBC's identity against the Ball tree.
func TestCollabIPHalvesInnerProducts(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 16, Clusters: 8}, 3000, 10)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 10, 11)
	tree := Build(data, BC, Config{LeafSize: 50, Seed: 2})
	for i := 0; i < queries.N; i++ {
		_, st := tree.Search(queries.Row(i), core.SearchOptions{K: 1})
		if st.CollabIPs == 0 {
			t.Fatal("collaborative IPs never used")
		}
		// Center IPs only: subtract the verification IPs (= Candidates).
		made := st.IPCount - st.Candidates
		without := made + st.CollabIPs
		if made != (without+1)/2 {
			t.Fatalf("query %d: %d centre products made, want (C_N+1)/2 = %d (C_N=%d)", i, made, (without+1)/2, without)
		}
	}
}

func overlap(res, gt []core.Result) int {
	// count returned ids whose distance is within the gt k-th distance
	// (ties counted as hits, the standard recall convention).
	if len(gt) == 0 {
		return 0
	}
	kth := gt[len(gt)-1].Dist
	hits := 0
	for _, r := range res {
		if r.Dist <= kth*(1+1e-9)+1e-12 {
			hits++
		}
	}
	if hits > len(gt) {
		hits = len(gt)
	}
	return hits
}

func TestSearchProfileRecordsPhases(t *testing.T) { forKinds(t, testSearchProfileRecordsPhases) }

func testSearchProfileRecordsPhases(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 4}, 800, 14)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 3, 15)
	tree := Build(data, kind, Config{LeafSize: 30, Seed: 4})
	prof := &core.Profile{}
	for i := 0; i < queries.N; i++ {
		tree.Search(queries.Row(i), core.SearchOptions{K: 5, Profile: prof})
	}
	if prof.Get(core.PhaseVerify) <= 0 {
		t.Fatal("profile must record verification time")
	}
	if prof.Get(core.PhaseBound) <= 0 {
		t.Fatal("profile must record bound time")
	}
}

// TestSearchFilteredProfileRecordsPhases pins the phase split when a Filter
// closure runs among the leaf scan's stages: verification inner products
// must be charged to PhaseVerify, not lumped into PhaseBound with the
// closure's calls.
func TestSearchFilteredProfileRecordsPhases(t *testing.T) {
	forKinds(t, testSearchFilteredProfileRecordsPhases)
}

func testSearchFilteredProfileRecordsPhases(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 4}, 800, 14)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 3, 15)
	tree := Build(data, kind, Config{LeafSize: 30, Seed: 4})
	prof := &core.Profile{}
	for i := 0; i < queries.N; i++ {
		tree.Search(queries.Row(i), core.SearchOptions{
			K:       5,
			Profile: prof,
			Filter:  func(id int32) bool { return id%2 == 0 },
		})
	}
	if prof.Get(core.PhaseVerify) <= 0 {
		t.Fatal("filtered profile must record verification time")
	}
	if prof.Get(core.PhaseBound) <= 0 {
		t.Fatal("filtered profile must record bound time")
	}
}

func TestSearchKLargerThanN(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		data := vec.FromRows([][]float32{{0}, {1}, {2}}).AppendOnes()
		tree := Build(data, kind, Config{LeafSize: 2, Seed: 1})
		res, _ := tree.Search([]float32{1, -1}, core.SearchOptions{K: 10})
		if len(res) != 3 {
			t.Fatalf("k>n should return all 3 points, got %d", len(res))
		}
	})
}

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

// TestQuickExactInvariantToParams: exact results do not depend on leaf size,
// preference, or ablation switches.
func TestQuickExactInvariantToParams(t *testing.T) { forKinds(t, testQuickExactInvariantToParams) }

func testQuickExactInvariantToParams(t *testing.T, kind Kind) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(250) + 50
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyUniform, RawDim: 8}, n, seed)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 2, seed+1)
		ref := linearscan.New(data)
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			want, _ := ref.Search(q, core.SearchOptions{K: 4})
			for _, leaf := range []int{5, 37, 1000} {
				tree := Build(data, kind, Config{LeafSize: leaf, Seed: seed})
				for _, variant := range allVariants() {
					for _, pref := range []core.Preference{core.PrefCenter, core.PrefLowerBound} {
						variant.K, variant.Preference = 4, pref
						got, _ := tree.Search(q, variant)
						if !sameDists(got, want) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestBallIsAblatedBC pins the paper's Figure 8 reading as an invariant: over
// the same data, seed and leaf size, a Ball tree and a BC tree searched with
// both point-level switches off return identical results on exact unbudgeted
// queries — sequential and batched, quantized and not — and do identical work
// but for Lemma 2: every counter agrees once each collaborative product is
// counted as the O(d) product the Ball tree made in its place (batched stats
// depend on which queries share a chunk and are not compared). Algorithm 1's
// direct centroids and Algorithm 4's Lemma 1 centres can differ in the last
// ulp, and a derived product is discounted by its kappa, either of which
// could flip a bound comparison on some input, so this is pinned on fixed
// seeds rather than claimed for all data.
func TestBallIsAblatedBC(t *testing.T) {
	ablated := core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true}
	for _, family := range []dataset.Family{dataset.FamilyClustered, dataset.FamilyHeavyTail, dataset.FamilyUniform} {
		raw := dataset.Dedup(dataset.Generate(dataset.Spec{Name: "t", Family: family, RawDim: 24, Clusters: 8}, 3000, 7))
		queries := dataset.GenerateQueries(raw, 40, 8)
		normalizeRows(queries)
		for _, quantize := range []bool{false, true} {
			cfg := Config{LeafSize: 40, Seed: 5, Quantize: quantize}
			ball := Build(raw.AppendOnes(), Ball, cfg)
			bc := Build(raw.AppendOnes(), BC, cfg)
			ballBatch, _ := ball.SearchBatch(queries, core.SearchOptions{K: 10})
			bcBatch, _ := bc.SearchBatch(queries, ablated)
			for qi := 0; qi < queries.N; qi++ {
				label := fmt.Sprintf("%v quantize=%v query %d", family, quantize, qi)
				want, wantStats := ball.Search(queries.Row(qi), core.SearchOptions{K: 10})
				got, gotStats := bc.Search(queries.Row(qi), ablated)
				requireSameResults(t, label, got, want)
				if gotStats.CollabIPs == 0 || wantStats.CollabIPs != 0 {
					t.Fatalf("%s: %d collaborative products on the BC tree, %d on the Ball tree", label, gotStats.CollabIPs, wantStats.CollabIPs)
				}
				gotStats.IPCount += gotStats.CollabIPs
				gotStats.CollabIPs = 0
				if gotStats != wantStats {
					t.Fatalf("%s: ablated BC stats with Lemma 2 undone %+v, Ball stats %+v", label, gotStats, wantStats)
				}
				requireSameResults(t, label+" batched", bcBatch[qi], ballBatch[qi])
				requireSameResults(t, label+" batched vs sequential", ballBatch[qi], want)
			}
		}
	}
}
