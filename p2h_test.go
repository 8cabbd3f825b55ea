package p2h

import (
	"math"
	"path/filepath"
	"testing"
)

// testSetup builds a small deterministic workload through the public API.
func testSetup(t *testing.T) (*Matrix, *Matrix, [][]Result) {
	t.Helper()
	data := Dedup(GenerateDataset("Sift", 800, 1))
	queries := GenerateQueries(data, 10, 2)
	return data, queries, GroundTruth(data, queries, 5)
}

func TestSearchValidatesQueryDimension(t *testing.T) {
	data, _, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong query dimension")
		}
	}()
	ix.Search(make([]float32, data.D), SearchOptions{K: 1}) // missing offset
}

func TestSearchRescalesUnnormalizedQueries(t *testing.T) {
	data, queries, _ := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 1})
	q := queries.Row(0)
	// Scale the whole query by 7: same hyperplane, so same neighbors and
	// same distances after the library rescales.
	scaled := make([]float32, len(q))
	for i, v := range q {
		scaled[i] = v * 7
	}
	a, _ := ix.Search(q, SearchOptions{K: 5})
	b, _ := ix.Search(scaled, SearchOptions{K: 5})
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-5*(1+a[i].Dist) {
			t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHyperplaneAndDistance(t *testing.T) {
	// Point (3, 4), hyperplane x = 1 -> normal (1, 0), offset -1, distance 2.
	q := Hyperplane([]float32{1, 0}, -1)
	if got := Distance([]float32{3, 4}, q); math.Abs(got-2) > 1e-12 {
		t.Fatalf("distance %v want 2", got)
	}
	// Un-normalized normal gives the same geometric distance.
	q2 := Hyperplane([]float32{2, 0}, -2)
	if got := Distance([]float32{3, 4}, q2); math.Abs(got-2) > 1e-6 {
		t.Fatalf("distance %v want 2", got)
	}
}

func TestDistanceAgreesWithIndex(t *testing.T) {
	data, queries, _ := testSetup(t)
	ix := NewLinearScan(data)
	for i := 0; i < 3; i++ {
		q := queries.Row(i)
		res, _ := ix.Search(q, SearchOptions{K: 3})
		for _, r := range res {
			want := Distance(data.Row(int(r.ID)), q)
			if math.Abs(want-r.Dist) > 1e-5*(1+want) {
				t.Fatalf("query %d id %d: index dist %v, Eq.1 dist %v", i, r.ID, r.Dist, want)
			}
		}
	}
}

func TestFvecsRoundTripPublic(t *testing.T) {
	data := GenerateDataset("Music", 50, 3)
	path := filepath.Join(t.TempDir(), "d.fvecs")
	if err := SaveFvecs(path, data); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFvecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != data.N || back.D != data.D {
		t.Fatalf("shape %dx%d", back.N, back.D)
	}
	for i := range data.Data {
		if data.Data[i] != back.Data[i] {
			t.Fatal("payload mismatch")
		}
	}
}

// TestRecallConventions pins Recall's two conventions: a returned point at or
// within the exact k-th distance is a hit whatever its id (ties count), and
// hits are capped at k.
func TestRecallConventions(t *testing.T) {
	gt := []Result{{ID: 1, Dist: 0.1}, {ID: 2, Dist: 0.2}, {ID: 3, Dist: 0.3}}
	cases := []struct {
		name string
		res  []Result
		want float64
	}{
		{"perfect", gt, 1},
		{"empty", nil, 0},
		{"half", gt[:1], 1.0 / 3},
		{"different ids same dists", []Result{{ID: 9, Dist: 0.1}, {ID: 8, Dist: 0.25}, {ID: 7, Dist: 0.3}}, 1},
		{"too far", []Result{{ID: 9, Dist: 0.9}}, 0},
		{"overfull capped", []Result{{ID: 1, Dist: 0.1}, {ID: 2, Dist: 0.1}, {ID: 3, Dist: 0.1}, {ID: 4, Dist: 0.1}}, 1},
	}
	for _, c := range cases {
		if got := Recall(c.res, gt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: recall %v want %v", c.name, got, c.want)
		}
	}
	if got := Recall(nil, nil); got != 1 {
		t.Errorf("empty gt should be recall 1, got %v", got)
	}
}

func TestDatasetsCatalog(t *testing.T) {
	names := Datasets()
	if len(names) != 16 {
		t.Fatalf("want 16 catalog entries, got %d", len(names))
	}
	found := false
	for _, n := range names {
		if n == "Sift" {
			found = true
		}
	}
	if !found {
		t.Fatal("catalog must contain Sift")
	}
}

func TestBudgetTradeoffThroughFacade(t *testing.T) {
	data, queries, gt := testSetup(t)
	ix := MustBuild(t, data, Spec{Kind: KindBCTree, Seed: 5})
	var rLow, rHigh float64
	for i := 0; i < queries.N; i++ {
		low, _ := ix.Search(queries.Row(i), SearchOptions{K: 5, Budget: 8})
		high, _ := ix.Search(queries.Row(i), SearchOptions{K: 5, Budget: data.N})
		rLow += Recall(low, gt[i])
		rHigh += Recall(high, gt[i])
	}
	if rHigh < float64(queries.N)-1e-9 {
		t.Fatalf("full budget not exact: %v", rHigh)
	}
	if rLow > rHigh {
		t.Fatalf("budget 8 recall %v beats full %v", rLow, rHigh)
	}
}
