package p2h

// Integration tests: systematic cross-checks over every index type, every
// synthetic data family, and the parameter axes the unit tests exercise only
// locally. These are the "one library, one answer" guarantees a downstream
// user relies on: with an unlimited budget every index returns the same
// distances as the exhaustive scan, on every data shape, at every k.

import (
	"bytes"
	"math"
	"testing"

	"p2h/internal/balltree"
)

// integrationFamilies maps a representative data set name per generator
// family (see internal/dataset's catalog).
var integrationFamilies = []string{
	"Sift",  // clustered
	"GloVe", // low-rank
	"Music", // heavy-tail
	"Enron", // sparse
}

// buildAll constructs every index type with small, test-friendly parameters.
func buildAll(t testing.TB, data *Matrix) map[string]Index {
	return map[string]Index{
		"balltree": MustBuild(t, data, Spec{Kind: KindBallTree, LeafSize: 40, Seed: 11}),
		"bctree":   MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 40, Seed: 11}),
		"kdtree":   MustBuild(t, data, Spec{Kind: KindKDTree, LeafSize: 40}),
		"nh":       MustBuild(t, data, Spec{Kind: KindNH, Lambda: 48, M: 8, Seed: 11}),
		"fh":       MustBuild(t, data, Spec{Kind: KindFH, Lambda: 48, M: 8, Seed: 11}),
		"quant":    MustBuild(t, data, Spec{Kind: KindQuantizedScan}),
		"sharded":  MustBuild(t, data, Spec{Kind: KindSharded, Shards: 5, Seed: 11}),
		"scan":     NewLinearScan(data),
	}
}

func TestIntegrationAllIndexesAllFamiliesExact(t *testing.T) {
	for _, name := range integrationFamilies {
		data := Dedup(GenerateDataset(name, 700, 1))
		queries := GenerateQueries(data, 6, 2)
		for _, k := range []int{1, 7, 25} {
			gt := GroundTruth(data, queries, k)
			for method, ix := range buildAll(t, data) {
				for qi := 0; qi < queries.N; qi++ {
					res, _ := ix.Search(queries.Row(qi), SearchOptions{K: k})
					if len(res) != len(gt[qi]) {
						t.Fatalf("%s/%s k=%d query %d: %d results, want %d",
							name, method, k, qi, len(res), len(gt[qi]))
					}
					for j := range res {
						want := gt[qi][j].Dist
						if math.Abs(res[j].Dist-want) > 1e-9*(1+want) {
							t.Fatalf("%s/%s k=%d query %d rank %d: dist %v want %v",
								name, method, k, qi, j, res[j].Dist, want)
						}
					}
				}
			}
		}
	}
}

// TestIntegrationBudgetMonotonicity: on every index, growing the budget
// never hurts recall by more than sweep noise, and the full budget is exact.
func TestIntegrationBudgetMonotonicity(t *testing.T) {
	data := Dedup(GenerateDataset("Sift", 1500, 3))
	queries := GenerateQueries(data, 10, 4)
	gt := GroundTruth(data, queries, 10)
	budgets := []int{15, 150, 750, data.N}
	for method, ix := range buildAll(t, data) {
		var prev float64 = -1
		for _, budget := range budgets {
			var recall float64
			for qi := 0; qi < queries.N; qi++ {
				res, st := ix.Search(queries.Row(qi), SearchOptions{K: 10, Budget: budget})
				recall += Recall(res, gt[qi])
				slack := int64(0)
				if method == "fh" || method == "sharded" {
					slack = 8 // per-partition/per-shard ceil rounding
				}
				if st.Candidates > int64(budget)+slack {
					t.Fatalf("%s budget %d: verified %d", method, budget, st.Candidates)
				}
			}
			recall /= float64(queries.N)
			if recall < prev-0.05 {
				t.Fatalf("%s: recall dropped %v -> %v at budget %d", method, prev, recall, budget)
			}
			prev = recall
		}
		if prev < 1-1e-9 {
			t.Fatalf("%s: full budget recall %v", method, prev)
		}
	}
}

// TestIntegrationSerializedTreesAgree: a save/load cycle preserves exact
// search behavior for both tree types, across families.
func TestIntegrationSerializedTreesAgree(t *testing.T) {
	for _, name := range integrationFamilies {
		data := Dedup(GenerateDataset(name, 500, 5))
		queries := GenerateQueries(data, 5, 6)

		reload := func(ix Index) Index {
			var buf bytes.Buffer
			if err := Save(&buf, ix); err != nil {
				t.Fatal(err)
			}
			out, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		ball := MustBuild(t, data, Spec{Kind: KindBallTree, LeafSize: 30, Seed: 7})
		ball2 := reload(ball)
		bc := MustBuild(t, data, Spec{Kind: KindBCTree, LeafSize: 30, Seed: 7})
		bc2 := reload(bc)

		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			for _, pair := range []struct {
				name string
				a, b Index
			}{{"balltree", ball, ball2}, {"bctree", bc, bc2}} {
				ra, _ := pair.a.Search(q, SearchOptions{K: 5})
				rb, _ := pair.b.Search(q, SearchOptions{K: 5})
				for j := range ra {
					if ra[j] != rb[j] {
						t.Fatalf("%s/%s query %d rank %d: %v != %v",
							name, pair.name, qi, j, ra[j], rb[j])
					}
				}
			}
		}
	}
}

// TestIntegrationLowDimensions: the whole stack works at d=1 and d=2, where
// degenerate geometry (collinear points, zero rejections) is the norm.
func TestIntegrationLowDimensions(t *testing.T) {
	for _, d := range []int{1, 2} {
		rows := make([][]float32, 64)
		for i := range rows {
			row := make([]float32, d)
			for j := range row {
				row[j] = float32(i%8) - 3.5
			}
			rows[i] = row
		}
		data := Dedup(FromRows(rows))
		normal := make([]float32, d)
		normal[0] = 1
		q := Hyperplane(normal, -0.25)
		gtRes, _ := NewLinearScan(data).Search(q, SearchOptions{K: 3})
		for method, ix := range buildAll(t, data) {
			res, _ := ix.Search(q, SearchOptions{K: 3})
			for j := range gtRes {
				if math.Abs(res[j].Dist-gtRes[j].Dist) > 1e-9*(1+gtRes[j].Dist) {
					t.Fatalf("d=%d %s rank %d: %v want %v", d, method, j, res[j], gtRes[j])
				}
			}
		}
	}
}

// TestIntegrationIdenticalPoints: duplicate-heavy degenerate input (before
// dedup) must not break construction or search on any index.
func TestIntegrationIdenticalPoints(t *testing.T) {
	rows := make([][]float32, 100)
	for i := range rows {
		rows[i] = []float32{1, 2, 3}
	}
	data := FromRows(rows)
	q := Hyperplane([]float32{1, 0, 0}, 0)
	for method, ix := range buildAll(t, data) {
		res, _ := ix.Search(q, SearchOptions{K: 5})
		if len(res) != 5 {
			t.Fatalf("%s: %d results", method, len(res))
		}
		for _, r := range res {
			if math.Abs(r.Dist-1) > 1e-6 {
				t.Fatalf("%s: distance %v want 1", method, r.Dist)
			}
		}
	}
}

// TestIntegrationHyperplaneThroughPoint: a hyperplane passing exactly
// through a data point must return that point at distance ~0 on every index.
func TestIntegrationHyperplaneThroughPoint(t *testing.T) {
	data := Dedup(GenerateDataset("Sift", 400, 8))
	target := data.Row(123)
	normal := make([]float32, data.D)
	normal[0] = 1
	// offset = -<normal, target>: the plane contains the target point.
	q := Hyperplane(normal, -float64(target[0]))
	for method, ix := range buildAll(t, data) {
		res, _ := ix.Search(q, SearchOptions{K: 1})
		if res[0].Dist > 1e-5 {
			t.Fatalf("%s: nearest distance %v, want ~0 (plane contains point 123)", method, res[0].Dist)
		}
	}
}

// TestIntegrationStatsConsistency: verified candidates never exceed n, and
// IPCount at least covers the verifications, on every index and family.
func TestIntegrationStatsConsistency(t *testing.T) {
	data := Dedup(GenerateDataset("GloVe", 600, 9))
	queries := GenerateQueries(data, 5, 10)
	for method, ix := range buildAll(t, data) {
		for qi := 0; qi < queries.N; qi++ {
			_, st := ix.Search(queries.Row(qi), SearchOptions{K: 5})
			if st.Candidates > int64(data.N) {
				t.Fatalf("%s: %d candidates > n", method, st.Candidates)
			}
			if st.IPCount < st.Candidates {
				t.Fatalf("%s: IPCount %d < candidates %d", method, st.IPCount, st.Candidates)
			}
		}
	}
}

// TestIntegrationIndexBytesOrdering: the paper's Table III size ordering
// holds on a common data set: trees are smaller than hash indexes. Between
// the two trees the paper's order does not: a BC-Tree adds two float32 a point
// and a centerNorm a node to a Ball-Tree and drops the right children's
// centres, (nodes-1)/2 rows of d floats — which at d = 129 and the default
// leaf size outweighs what it adds.
func TestIntegrationIndexBytesOrdering(t *testing.T) {
	data := Dedup(GenerateDataset("Sift", 2000, 11))
	ball := MustBuild(t, data, Spec{Kind: KindBallTree, Seed: 1})
	bc := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1})
	nhIx := MustBuild(t, data, Spec{Kind: KindNH, M: 32, Seed: 1})
	fhIx := MustBuild(t, data, Spec{Kind: KindFH, M: 32, Seed: 1})
	if ball.IndexBytes() >= nhIx.IndexBytes() || bc.IndexBytes() >= nhIx.IndexBytes() {
		t.Fatalf("trees (%d, %d) must be smaller than NH (%d)",
			ball.IndexBytes(), bc.IndexBytes(), nhIx.IndexBytes())
	}
	if ball.IndexBytes() >= fhIx.IndexBytes() || bc.IndexBytes() >= fhIx.IndexBytes() {
		t.Fatalf("trees (%d, %d) must be smaller than FH (%d)",
			ball.IndexBytes(), bc.IndexBytes(), fhIx.IndexBytes())
	}
	arenaNodes := func(ix Index) int64 { return int64(ix.(wrapped).base().in.(*balltree.Tree).Nodes()) }
	n, d, nodes := int64(bc.N()), int64(bc.Dim()+1), arenaNodes(bc)
	if arenaNodes(ball) != nodes {
		t.Fatalf("same seed must split identically: %d vs %d nodes", arenaNodes(ball), nodes)
	}
	if got, want := bc.IndexBytes()-ball.IndexBytes(), 8*n+8*nodes-4*d*(nodes-1)/2; got != want {
		t.Fatalf("BC-Tree (%d) carries %d bytes over Ball-Tree (%d), want 8n + 8 nodes - 4d(nodes-1)/2 = %d",
			bc.IndexBytes(), got, ball.IndexBytes(), want)
	}
	if bc.IndexBytes() >= ball.IndexBytes() {
		t.Fatalf("BC-Tree (%d) should be the lighter index at d = %d, Ball-Tree is %d", bc.IndexBytes(), d, ball.IndexBytes())
	}
}

// TestIntegrationDeterministicEndToEnd: two identical builds answer a whole
// query batch identically, for every index type.
func TestIntegrationDeterministicEndToEnd(t *testing.T) {
	data := Dedup(GenerateDataset("Music", 500, 12))
	queries := GenerateQueries(data, 8, 13)
	a := buildAll(t, data)
	b := buildAll(t, data)
	for method := range a {
		for qi := 0; qi < queries.N; qi++ {
			ra, _ := a[method].Search(queries.Row(qi), SearchOptions{K: 5, Budget: 100})
			rb, _ := b[method].Search(queries.Row(qi), SearchOptions{K: 5, Budget: 100})
			if len(ra) != len(rb) {
				t.Fatalf("%s query %d: result counts differ", method, qi)
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("%s query %d rank %d: %v != %v", method, qi, j, ra[j], rb[j])
				}
			}
		}
	}
}

// TestIntegrationFilterConsistency: with a filter restricting the search to
// even ids, every index returns exactly the filtered exhaustive answer, and
// no odd id ever appears.
func TestIntegrationFilterConsistency(t *testing.T) {
	data := Dedup(GenerateDataset("Sift", 600, 14))
	queries := GenerateQueries(data, 6, 15)
	even := func(id int32) bool { return id%2 == 0 }
	ref := NewLinearScan(data)
	for method, ix := range buildAll(t, data) {
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			res, _ := ix.Search(q, SearchOptions{K: 5, Filter: even})
			want, _ := ref.Search(q, SearchOptions{K: 5, Filter: even})
			if len(res) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", method, qi, len(res), len(want))
			}
			for j := range res {
				if res[j].ID%2 != 0 {
					t.Fatalf("%s query %d: odd id %d slipped through", method, qi, res[j].ID)
				}
				if math.Abs(res[j].Dist-want[j].Dist) > 1e-9*(1+want[j].Dist) {
					t.Fatalf("%s query %d rank %d: %v want %v", method, qi, j, res[j], want[j])
				}
			}
		}
	}
}
