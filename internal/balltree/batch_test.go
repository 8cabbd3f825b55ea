package balltree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// forKinds runs f once per kind: every behaviour after Build is one code
// path, so every test of it is a row over {Ball, BC}.
func forKinds(t *testing.T, f func(t *testing.T, kind Kind)) {
	for _, kind := range []Kind{Ball, BC} {
		t.Run(kind.String(), func(t *testing.T) { f(t, kind) })
	}
}

func batchSetup(t *testing.T, kind Kind, n, nq int, seed int64) (*Tree, *vec.Matrix) {
	t.Helper()
	raw := dataset.Dedup(dataset.Generate(dataset.Spec{
		Name: "t", Family: dataset.FamilyClustered, RawDim: 24, Clusters: 8,
	}, n, seed))
	queries := dataset.GenerateQueries(raw, nq, seed+1)
	normalizeRows(queries)
	return Build(raw.AppendOnes(), kind, Config{LeafSize: 32, Seed: seed}), queries
}

// normalizeRows rescales every query to a unit normal, the contract of the
// tree-level Search/SearchBatch (p2h.checkQuery does this at the API
// boundary).
func normalizeRows(queries *vec.Matrix) {
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		vec.Normalize(q[:len(q)-1])
	}
}

// requireSameResults asserts bitwise-equal results, including order.
func requireSameResults(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	forKinds(t, testSearchBatchMatchesSequential)
}

func testSearchBatchMatchesSequential(t *testing.T, kind Kind) {
	tree, queries := batchSetup(t, kind, 1500, 40, 1)
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
	}{
		{"exact-k1", core.SearchOptions{K: 1}},
		{"exact-k10", core.SearchOptions{K: 10}},
		{"exact-kBig", core.SearchOptions{K: tree.N() + 5}}, // k > n
		{"budget", core.SearchOptions{K: 10, Budget: 100}},
		{"filtered", core.SearchOptions{K: 10, Filter: func(id int32) bool { return id%3 != 0 }}},
		{"lowerbound-pref", core.SearchOptions{K: 10, Preference: core.PrefLowerBound}},
		{"wo-ball", core.SearchOptions{K: 10, DisablePointBall: true}},
		{"wo-cone", core.SearchOptions{K: 10, DisablePointCone: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch, _ := tree.SearchBatch(queries, tc.opts)
			for qi := 0; qi < queries.N; qi++ {
				want, _ := tree.Search(queries.Row(qi), tc.opts)
				requireSameResults(t, tc.name, batch[qi], want)
			}
		})
	}
}

func TestSearchBatchEmptyAndSingle(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		tree, queries := batchSetup(t, kind, 400, 3, 2)
		empty := &vec.Matrix{Data: nil, N: 0, D: queries.D}
		out, stats := tree.SearchBatch(empty, core.SearchOptions{K: 5})
		if len(out) != 0 || len(stats) != 0 {
			t.Fatalf("empty batch: %d results, %d stats", len(out), len(stats))
		}
		one := &vec.Matrix{Data: queries.Row(0), N: 1, D: queries.D}
		out, _ = tree.SearchBatch(one, core.SearchOptions{K: 5})
		want, _ := tree.Search(queries.Row(0), core.SearchOptions{K: 5})
		requireSameResults(t, "single", out[0], want)
	})
}

func TestSearchBatchPanicsOnDimMismatch(t *testing.T) {
	tree, _ := batchSetup(t, BC, 300, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.SearchBatch(vec.NewMatrix(2, tree.Dim()+1), core.SearchOptions{K: 1})
}

// TestSearchBatchStatsAccounted checks the per-query counters of the shared
// traversal stay plausible: every query visits the root, and work counters
// are positive.
func TestSearchBatchStatsAccounted(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		tree, queries := batchSetup(t, kind, 800, 8, 4)
		_, stats := tree.SearchBatch(queries, core.SearchOptions{K: 5})
		for qi, st := range stats {
			if st.NodesVisited < 1 {
				t.Fatalf("query %d: no nodes visited", qi)
			}
			if st.Candidates <= 0 || st.IPCount <= 0 {
				t.Fatalf("query %d: empty work counters %+v", qi, st)
			}
		}
	})
}

// TestSearchBatchBallPruningActive checks the shared traversal still applies
// the point-level ball bound on a BC tree: across a clustered workload some
// points must be pruned, and disabling the bound must not change results.
func TestSearchBatchBallPruningActive(t *testing.T) {
	tree, queries := batchSetup(t, BC, 1200, 10, 5)
	resOn, statsOn := tree.SearchBatch(queries, core.SearchOptions{K: 5})
	resOff, _ := tree.SearchBatch(queries, core.SearchOptions{K: 5, DisablePointBall: true})
	var pruned int64
	for qi := range resOn {
		requireSameResults(t, "ball ablation", resOn[qi], resOff[qi])
		pruned += statsOn[qi].PrunedPoints
	}
	if pruned == 0 {
		t.Fatal("expected the batched ball bound to prune at least one point")
	}
}

// TestScanLeafTileMatchesQueryByQuery drives scanLeaf on one leaf of a
// two-dimensional set with nine active queries — two groups for the
// multi-query kernel and one query left over — whose prefixes differ inside a
// group: the whole leaf (a collector that is not full) beside cuts of several
// lengths in the first, so the kernel takes the shortest and each query
// finishes its own; an empty one (the centre far beyond lambda) in the second,
// which leaves the kernel nothing. k exceeds the leaf, so every verified row
// is in its collector at the end. Collectors and counters must come out as
// they do when each query cuts, verifies and pushes in turn, which is the
// reference written out below.
func TestScanLeafTileMatchesQueryByQuery(t *testing.T) {
	const k, nq = 256, 9
	const whole, partial, none = 0, 1, 2
	kinds := [nq]int{whole, partial, whole, partial, partial, whole, none, partial, whole}
	rng := rand.New(rand.NewSource(7))
	data := vec.NewMatrix(3000, 3)
	for i := 0; i < data.N; i++ {
		copy(data.Row(i), []float32{float32(1000 + rng.NormFloat64()), float32(1000 + rng.NormFloat64()), 1})
	}
	tree := Build(data, BC, Config{LeafSize: 100, Seed: 3})
	var leaf *nodeRec
	for i := range tree.nodes {
		if n := &tree.nodes[i]; n.isLeaf() && (leaf == nil || n.count() > leaf.count()) {
			leaf = n
		}
	}
	start, m, d := int(leaf.start), int(leaf.count()), tree.points.D
	centre := make([]float32, d)
	for r := start; r < start+m; r++ {
		for j, v := range tree.points.Row(r) {
			centre[j] += v / float32(m)
		}
	}

	queries := vec.NewMatrix(nq, d)
	act, ips := make([]int32, nq), make([]float64, nq)
	seed := make([][]core.Result, nq) // what each collector holds on arrival
	for qi := 0; qi < nq; qi++ {
		q := queries.Row(qi)
		q[0], q[1] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		vec.Normalize(q[:2])
		q[2] = -float32(vec.Dot(q[:2], centre[:2]))
		act[qi], ips[qi] = int32(qi), vec.Dot(q, centre)
		qnorm := vec.Norm(q)    // bounds are |<q,c>| - ||q|| r, in the lifted space
		if kinds[qi] == whole { // not full: lambda is +Inf
			seed[qi] = []core.Result{{ID: -1, Dist: 0.5}}
			continue
		}
		// Full at a lambda every row beats, the centre beyond it by a
		// fraction of the leaf's radius, or by ten radii.
		const lambda = 1e3
		for i := 0; i < k; i++ {
			seed[qi] = append(seed[qi], core.Result{ID: int32(-1 - i), Dist: lambda})
		}
		ips[qi] = lambda + qnorm*leaf.radius*(0.2+0.07*float64(qi))
		if kinds[qi] == none {
			ips[qi] = lambda + 10*qnorm*leaf.radius
		}
	}

	b := &batchSearcher{tree: tree, queries: queries, opts: core.SearchOptions{K: k}, stats: make([]core.Stats, nq)}
	b.scr.Reset(queries, k)
	b.scr.Wide.Reset(queries.Data, d)
	for qi, rs := range seed {
		for _, r := range rs {
			b.scr.Heaps[qi].Push(r.ID, r.Dist)
		}
	}
	const kappa = 1e-9
	b.scanLeaf(leaf, act, ips, kappa)

	var cuts [nq]int
	for qi := 0; qi < nq; qi++ {
		tk := core.NewTopK(k)
		for _, r := range seed[qi] {
			tk.Push(r.ID, r.Dist)
		}
		qnorm := b.scr.QNorms[qi]
		cut := vec.BallCutoff(math.Abs(ips[qi])-qnorm*kappa, qnorm, tk.Lambda(),
			leaf.centerNorm, tree.xcos[start:start+m], tree.xsin[start:start+m])
		dists := make([]float64, cut)
		vec.DotBlock(queries.Row(qi), tree.points.Data[start*d:(start+cut)*d], dists)
		for r, v := range dists {
			tk.Push(tree.ids[start+r], math.Abs(v))
		}
		want := core.Stats{LeavesVisited: 1, IPCount: int64(cut), Candidates: int64(cut), PrunedPoints: int64(m - cut)}
		if b.stats[qi] != want {
			t.Fatalf("query %d: counters %+v, query by query %+v", qi, b.stats[qi], want)
		}
		requireSameResults(t, fmt.Sprintf("query %d", qi), b.scr.Heaps[qi].DrainInto(nil), tk.Results())
		cuts[qi] = cut
		if (kinds[qi] == whole) != (cut == m) || (kinds[qi] == none) != (cut == 0) {
			t.Fatalf("query %d: prefix %d of %d is not the case this test set up", qi, cut, m)
		}
	}
	if cuts[1] == cuts[3] {
		t.Fatalf("prefixes %v: the first group's cuts should differ", cuts)
	}
}
