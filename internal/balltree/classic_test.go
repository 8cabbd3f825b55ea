package balltree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// bruteNN/FN/MIP compute reference answers over the tree's lifted storage.
func bruteResults(data *vec.Matrix, q []float32, k int, score func(x []float32) float64, largest bool) []core.Result {
	all := make([]core.Result, data.N)
	for i := 0; i < data.N; i++ {
		all[i] = core.Result{ID: int32(i), Dist: score(data.Row(i))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			if largest {
				return all[i].Dist > all[j].Dist
			}
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func classicSetup(t *testing.T, seed int64) (*Tree, *vec.Matrix, *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 16, Clusters: 8}, 800, seed)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 8, seed+1)
	return Build(data, Ball, Config{LeafSize: 25, Seed: seed}), data, queries
}

func distsEqual(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		scale := math.Max(1, math.Max(math.Abs(a[i].Dist), math.Abs(b[i].Dist)))
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-6*scale {
			return false
		}
	}
	return true
}

func TestSearchNNExact(t *testing.T) {
	tree, data, queries := classicSetup(t, 1)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		got, st := tree.SearchNN(q, 5)
		want := bruteResults(data, q, 5, func(x []float32) float64 { return vec.Dist(q, x) }, false)
		if !distsEqual(got, want) {
			t.Fatalf("query %d: NN %v want %v", qi, got, want)
		}
		if st.Candidates == 0 {
			t.Fatal("no candidates verified")
		}
	}
}

func TestSearchFNExact(t *testing.T) {
	tree, data, queries := classicSetup(t, 2)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		got, _ := tree.SearchFN(q, 5)
		want := bruteResults(data, q, 5, func(x []float32) float64 { return vec.Dist(q, x) }, true)
		if !distsEqual(got, want) {
			t.Fatalf("query %d: FN %v want %v", qi, got, want)
		}
		// Furthest distances are sorted descending.
		for i := 1; i < len(got); i++ {
			if got[i].Dist > got[i-1].Dist {
				t.Fatalf("FN results not descending: %v", got)
			}
		}
	}
}

func TestSearchMIPExact(t *testing.T) {
	tree, data, queries := classicSetup(t, 3)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		got, _ := tree.SearchMIP(q, 5)
		want := bruteResults(data, q, 5, func(x []float32) float64 { return vec.Dot(q, x) }, true)
		if !distsEqual(got, want) {
			t.Fatalf("query %d: MIP %v want %v", qi, got, want)
		}
	}
}

func TestClassicSearchesPrune(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 16}, 5000, 4)
	data := raw.AppendOnes()
	tree := Build(data, Ball, Config{LeafSize: 50, Seed: 4})
	q := data.Row(17) // a data point: NN/MIP pruning should be strong
	_, nn := tree.SearchNN(q, 1)
	_, mip := tree.SearchMIP(q, 1)
	if nn.PrunedNodes == 0 || mip.PrunedNodes == 0 {
		t.Fatalf("expected pruning: nn=%d mip=%d", nn.PrunedNodes, mip.PrunedNodes)
	}
	if nn.Candidates >= int64(data.N) {
		t.Fatal("NN verified everything")
	}
}

func TestClassicKDefaultsAndOverflow(t *testing.T) {
	tree, data, queries := classicSetup(t, 5)
	q := queries.Row(0)
	res, _ := tree.SearchNN(q, 0) // k <= 0 means 1
	if len(res) != 1 {
		t.Fatalf("k=0 should return 1 result, got %d", len(res))
	}
	res, _ = tree.SearchFN(q, data.N+10)
	if len(res) != data.N {
		t.Fatalf("k>n should return all %d, got %d", data.N, len(res))
	}
}

// TestQuickClassicBoundsSound: for random nodes and queries, the NN bound
// never exceeds the true minimum distance, the FN bound never undercuts the
// true maximum, and the MIPS bound never undercuts the true maximum inner
// product.
func TestQuickClassicBoundsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 20
		d := rng.Intn(10) + 2
		raw := dataset.Generate(dataset.Spec{Name: "q", Family: dataset.FamilyUniform, RawDim: d}, n, seed)
		data := raw.AppendOnes()
		queries := dataset.GenerateQueries(raw, 2, seed+1)
		tree := Build(data, Ball, Config{LeafSize: 12, Seed: seed})
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			ok := true
			var walk func(ni int32)
			walk = func(ni int32) {
				nd := &tree.nodes[ni]
				c := tree.center(ni)
				minD, maxD := math.Inf(1), math.Inf(-1)
				maxIP := math.Inf(-1)
				for pos := nd.start; pos < nd.end; pos++ {
					x := tree.points.Row(int(pos))
					dd := vec.Dist(q, x)
					ip := vec.Dot(q, x)
					minD = math.Min(minD, dd)
					maxD = math.Max(maxD, dd)
					maxIP = math.Max(maxIP, ip)
				}
				tol := 1e-6 * (1 + maxD)
				if boundNN(q, c, nd.radius) > minD+tol {
					ok = false
				}
				if boundFN(q, c, nd.radius) < maxD-tol {
					ok = false
				}
				if boundMIP(q, c, nd.radius) < maxIP-tol {
					ok = false
				}
				if !nd.isLeaf() {
					walk(ni + 1)
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
