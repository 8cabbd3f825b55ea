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

// allVariants enumerates the Figure 8 ablation combinations plus the
// collaborative-IP switch; with an unlimited budget all must be exact.
func allVariants() []core.SearchOptions {
	var out []core.SearchOptions
	for _, noBall := range []bool{false, true} {
		for _, noCone := range []bool{false, true} {
			for _, noCollab := range []bool{false, true} {
				out = append(out, core.SearchOptions{
					DisablePointBall: noBall,
					DisablePointCone: noCone,
					DisableCollabIP:  noCollab,
				})
			}
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

// TestCollabIPHalvesInnerProducts checks Theorem 5: with Lemma 2 on, the
// number of O(d) center inner products is (about) half of the variant that
// computes both children directly.
func TestCollabIPHalvesInnerProducts(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 16, Clusters: 8}, 3000, 10)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 10, 11)
	tree := Build(data, BC, Config{LeafSize: 50, Seed: 2})
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		_, on := tree.Search(q, core.SearchOptions{K: 1})
		_, off := tree.Search(q, core.SearchOptions{K: 1, DisableCollabIP: true})
		// Center IPs only: subtract the verification IPs (= Candidates).
		onIP := on.IPCount - on.Candidates
		offIP := off.IPCount - off.Candidates
		if on.CollabIPs == 0 {
			t.Fatal("collaborative IPs never used")
		}
		// Theorem 5: C_N -> (C_N+1)/2 over the same traversal. The traversals
		// coincide here because the derived inner products are exact.
		want := (offIP + 1) / 2
		if onIP != want {
			t.Fatalf("query %d: collab IP count %d, want (C_N+1)/2 = %d (C_N=%d)", i, onIP, want, offIP)
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

// TestSearchFilteredProfileRecordsPhases pins the phase split on the
// filtered (point-at-a-time) leaf path: verification inner products must be
// charged to PhaseVerify, not lumped into PhaseBound.
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

// Property: the node-level ball bound never exceeds the true minimum
// |<x,q>| within the node (Theorem 2 soundness).
func TestQuickNodeBallBoundSound(t *testing.T) { forKinds(t, testQuickNodeBallBoundSound) }

func testQuickNodeBallBoundSound(t *testing.T, kind Kind) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		d := rng.Intn(12) + 2
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyClustered, RawDim: d, Clusters: 4}, n, seed)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 3, seed+1)
		tree := Build(data, kind, Config{LeafSize: 10, Seed: seed})
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			qnorm := vec.Norm(q)
			ok := true
			var walk func(ni int32)
			walk = func(ni int32) {
				nd := &tree.nodes[ni]
				lb := math.Abs(vec.Dot(q, tree.center(ni))) - qnorm*nd.radius
				if lb < 0 {
					lb = 0
				}
				trueMin := math.Inf(1)
				for pos := nd.start; pos < nd.end; pos++ {
					v := math.Abs(vec.Dot(q, tree.points.Row(int(pos))))
					if v < trueMin {
						trueMin = v
					}
				}
				if lb > trueMin*(1+1e-9)+1e-9 {
					ok = false
				}
				if !nd.isLeaf() {
					walk(nd.left)
					walk(nd.right)
				}
			}
			walk(0)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickPointBoundsSound checks, over random data and queries, that for
// every leaf point the two point-level bounds — evaluated, as the searches
// evaluate them, on the stored float32 arrays — are lower bounds of |<x,q>|
// (Theorems 2 and 3). The only error admitted is what float64 rounding of the
// d-term inner products behind truth, <q,c> and the norms can amount to,
// 2d·2^-53 per product of norms; the float32 storage needs no allowance
// because it rounds toward smaller bounds. Theorem 4 (the cone bound dominates
// the ball bound) holds for the exact structures, and each stored one sits
// within a float32 step of those, so that check gets a float32-sized margin.
func TestQuickPointBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 20
		d := rng.Intn(14) + 2
		family := []dataset.Family{dataset.FamilyClustered, dataset.FamilyUniform, dataset.FamilyHeavyTail}[rng.Intn(3)]
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: family, RawDim: d, Clusters: 4}, n, seed)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 3, seed+1)
		tree := Build(data, BC, Config{LeafSize: 16, Seed: seed})
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			qnorm := vec.Norm(q)
			ok := true
			var walk func(ni int32)
			walk = func(ni int32) {
				nd := &tree.nodes[ni]
				if !nd.isLeaf() {
					walk(nd.left)
					walk(nd.right)
					return
				}
				ip := vec.Dot(q, tree.center(ni))
				absIP := math.Abs(ip)
				qcos := 0.0
				if nd.centerNorm > 0 {
					qcos = ip / nd.centerNorm
				}
				qsin := math.Sqrt(math.Max(0, qnorm*qnorm-qcos*qcos))
				for pos := int(nd.start); pos < int(nd.end); pos++ {
					x := tree.points.Row(pos)
					truth := math.Abs(vec.Dot(q, x))
					ball := math.Max(0, absIP-qnorm*float64(tree.rx[pos]))
					cone := vec.ConeBound(qcos, qsin, float64(tree.xcos[pos]), float64(tree.xsin[pos]))
					scale := qnorm * (vec.Norm(x) + nd.centerNorm)
					tol := 2 * float64(data.D) * 0x1p-53 * scale
					if ball > truth+tol {
						ok = false // ball bound unsound
					}
					if cone*(1-boundSlack) > truth+tol {
						ok = false // cone bound unsound
					}
					if cone < ball-0x1p-22*scale {
						ok = false // Theorem 4: cone must dominate ball
					}
				}
			}
			walk(0)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickCollabIPIdentity checks Lemma 2 directly on built trees: the
// derived right-child inner product matches the direct computation.
func TestQuickCollabIPIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 40
		d := rng.Intn(10) + 2
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyHeavyTail, RawDim: d}, n, seed)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 2, seed+1)
		tree := Build(data, BC, Config{LeafSize: 10, Seed: seed})
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			ok := true
			var walk func(ni int32)
			walk = func(ni int32) {
				nd := &tree.nodes[ni]
				if nd.isLeaf() {
					return
				}
				l, r := &tree.nodes[nd.left], &tree.nodes[nd.right]
				ip := vec.Dot(q, tree.center(ni))
				ipl := vec.Dot(q, tree.center(nd.left))
				ipr := vec.Dot(q, tree.center(nd.right))
				cn, cl, cr := float64(nd.count()), float64(l.count()), float64(r.count())
				derived := (cn*ip - cl*ipl) / cr
				scale := math.Max(1, math.Abs(ipr))
				// float32 center storage dominates the error budget here.
				if math.Abs(derived-ipr) > 1e-3*scale {
					ok = false
				}
				walk(nd.left)
				walk(nd.right)
			}
			walk(0)
			if !ok {
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

// TestBallIsAblatedBC pins the paper's Figure 8 reading as an invariant, and
// guards that the fold-in of the switches (Tree.normalize) is complete: over
// the same data, seed and leaf size, a Ball tree and a BC tree searched with
// all three Disable* switches return identical results and identical
// core.Stats on exact unbudgeted queries — sequential and (results only;
// batched stats depend on which queries share a chunk) batched, quantized
// and not. Algorithm 1's direct centroids and Algorithm 4's Lemma 1 centres
// can differ in the last ulp, which could flip a bound comparison on some
// input, so this is pinned on fixed seeds rather than claimed for all data.
func TestBallIsAblatedBC(t *testing.T) {
	ablated := core.SearchOptions{K: 10, DisablePointBall: true, DisablePointCone: true, DisableCollabIP: true}
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
				if gotStats != wantStats {
					t.Fatalf("%s: ablated BC stats %+v, Ball stats %+v", label, gotStats, wantStats)
				}
				requireSameResults(t, label+" batched", bcBatch[qi], ballBatch[qi])
				requireSameResults(t, label+" batched vs sequential", ballBatch[qi], want)
			}
		}
	}
}
