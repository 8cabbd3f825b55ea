package nh

import (
	"math"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

func testData(t *testing.T, n, d int, seed int64) (data, queries *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: d, Clusters: 8}, n, seed)
	return raw.AppendOnes(), dataset.GenerateQueries(raw, 8, seed+1)
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil, Config{})
}

func TestDefaultsApplied(t *testing.T) {
	data, _ := testData(t, 200, 10, 1)
	ix := Build(data, Config{Seed: 1})
	if ix.Lambda() != 2*data.D {
		t.Fatalf("default lambda %d, want %d", ix.Lambda(), 2*data.D)
	}
	if ix.N() != 200 || ix.Dim() != 11 {
		t.Fatalf("index %s", ix)
	}
}

// TestFullBudgetExact: with budget >= n every point is verified, so NH
// returns the exact answer regardless of hash quality.
func TestFullBudgetExact(t *testing.T) {
	data, queries := testData(t, 400, 12, 2)
	ix := Build(data, Config{Lambda: 24, M: 8, L: 2, Seed: 3})
	scan := linearscan.New(data)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		got, st := ix.Search(q, core.SearchOptions{K: 5})
		want, _ := scan.Search(q, core.SearchOptions{K: 5})
		if st.Candidates != int64(data.N) {
			t.Fatalf("full budget must verify all: %d != %d", st.Candidates, data.N)
		}
		for j := range want {
			if math.Abs(got[j].Dist-want[j].Dist) > 1e-9*(1+want[j].Dist) {
				t.Fatalf("query %d rank %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	data, queries := testData(t, 500, 10, 4)
	ix := Build(data, Config{Lambda: 20, M: 8, L: 2, Seed: 5})
	for _, budget := range []int{1, 25, 100} {
		for i := 0; i < queries.N; i++ {
			res, st := ix.Search(queries.Row(i), core.SearchOptions{K: 5, Budget: budget})
			if st.Candidates > int64(budget) {
				t.Fatalf("budget %d exceeded: %d", budget, st.Candidates)
			}
			if len(res) == 0 {
				t.Fatal("budgeted search must return something")
			}
			if st.BucketProbes == 0 {
				t.Fatal("bucket probes must be counted")
			}
		}
	}
}

// TestRecallImprovesWithBudget: the candidate ordering must carry signal —
// more budget, no worse recall, and near-full budget near-perfect recall.
func TestRecallImprovesWithBudget(t *testing.T) {
	data, queries := testData(t, 2000, 16, 6)
	ix := Build(data, Config{Lambda: 32, M: 16, L: 2, Seed: 7})
	gt, _ := linearscan.New(data).SearchBatch(queries, core.SearchOptions{K: 10})
	recallAt := func(budget int) float64 {
		hit, total := 0, 0
		for i := 0; i < queries.N; i++ {
			res, _ := ix.Search(queries.Row(i), core.SearchOptions{K: 10, Budget: budget})
			kth := gt[i][len(gt[i])-1].Dist
			for _, r := range res {
				if r.Dist <= kth*(1+1e-9)+1e-12 {
					hit++
				}
			}
			total += len(gt[i])
		}
		return float64(hit) / float64(total)
	}
	low := recallAt(50)
	full := recallAt(2000)
	if full < 0.999 {
		t.Fatalf("full-budget recall must be exact: %.3f", full)
	}
	if low > full+1e-9 {
		t.Fatalf("recall went down with budget: %.3f -> %.3f", low, full)
	}
}

func TestDeterministicInSeed(t *testing.T) {
	data, queries := testData(t, 300, 8, 8)
	a := Build(data, Config{Lambda: 16, M: 8, L: 2, Seed: 9})
	b := Build(data, Config{Lambda: 16, M: 8, L: 2, Seed: 9})
	for i := 0; i < queries.N; i++ {
		ra, _ := a.Search(queries.Row(i), core.SearchOptions{K: 3, Budget: 50})
		rb, _ := b.Search(queries.Row(i), core.SearchOptions{K: 3, Budget: 50})
		if len(ra) != len(rb) {
			t.Fatal("same seed, different result count")
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("same seed, different results: %v vs %v", ra[j], rb[j])
			}
		}
	}
}

func TestIndexBytesScalesWithM(t *testing.T) {
	data, _ := testData(t, 400, 10, 10)
	small := Build(data, Config{Lambda: 20, M: 4, Seed: 11})
	large := Build(data, Config{Lambda: 20, M: 32, Seed: 11})
	if large.IndexBytes() <= small.IndexBytes() {
		t.Fatalf("more tables must cost more memory: %d <= %d", large.IndexBytes(), small.IndexBytes())
	}
	// Hash tables dominated by m*n*(8+4).
	want := int64(32) * int64(data.N) * 12
	if large.IndexBytes() < want {
		t.Fatalf("table accounting too small: %d < %d", large.IndexBytes(), want)
	}
}

// TestFullTransformVariant: the exact tensor lift (no sampling) has
// dimension d(d+1)/2 and stays exact at full budget.
func TestFullTransformVariant(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 8, Clusters: 4}, 300, 20)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 5, 21)
	ix := Build(data, Config{FullTransform: true, M: 8, L: 2, Seed: 22})
	d := data.D
	if ix.Lambda() != d*(d+1)/2 {
		t.Fatalf("full transform dimension %d, want %d", ix.Lambda(), d*(d+1)/2)
	}
	scan := linearscan.New(data)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		got, _ := ix.Search(q, core.SearchOptions{K: 3})
		want, _ := scan.Search(q, core.SearchOptions{K: 3})
		for j := range want {
			if math.Abs(got[j].Dist-want[j].Dist) > 1e-9*(1+want[j].Dist) {
				t.Fatalf("query %d rank %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestProfileRecordsLookupAndVerify(t *testing.T) {
	data, queries := testData(t, 600, 10, 12)
	ix := Build(data, Config{Lambda: 20, M: 8, L: 2, Seed: 13})
	prof := &core.Profile{}
	for i := 0; i < queries.N; i++ {
		ix.Search(queries.Row(i), core.SearchOptions{K: 5, Budget: 200, Profile: prof})
	}
	if prof.Get(core.PhaseLookup) <= 0 {
		t.Fatal("lookup phase not recorded")
	}
	if prof.Get(core.PhaseVerify) <= 0 {
		t.Fatal("verify phase not recorded")
	}
}
