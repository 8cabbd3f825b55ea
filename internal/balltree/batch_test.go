package balltree

import (
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
