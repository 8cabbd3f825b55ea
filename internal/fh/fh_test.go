package fh

import (
	"math"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

func testData(t *testing.T, family dataset.Family, n, d int, seed int64) (data, queries *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: family, RawDim: d, Clusters: 8}, n, seed)
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
	data, _ := testData(t, dataset.FamilyClustered, 200, 10, 1)
	ix := Build(data, Config{Seed: 1})
	if ix.Lambda() != 2*data.D {
		t.Fatalf("default lambda %d, want %d", ix.Lambda(), 2*data.D)
	}
	if ix.Partitions() < 1 {
		t.Fatal("must have at least one partition")
	}
}

// TestPartitionsCoverData: partition id lists form a permutation of the ids,
// and within a partition transformed norms stay within the ratio band.
func TestPartitionsCoverData(t *testing.T) {
	// Heavy-tail norms force multiple partitions.
	data, _ := testData(t, dataset.FamilyHeavyTail, 800, 12, 2)
	ix := Build(data, Config{Lambda: 24, M: 4, B: 0.5, Seed: 3})
	if ix.Partitions() < 2 {
		t.Fatalf("heavy-tail data should split into >1 partition, got %d", ix.Partitions())
	}
	seen := make([]bool, data.N)
	total := 0
	for _, p := range ix.parts {
		total += len(p.ids)
		for _, id := range p.ids {
			if seen[id] {
				t.Fatalf("id %d in two partitions", id)
			}
			seen[id] = true
		}
	}
	if total != data.N {
		t.Fatalf("partitions cover %d of %d points", total, data.N)
	}
	// Partition maxima must descend.
	for i := 1; i < len(ix.parts); i++ {
		if ix.parts[i].maxSqNorm > ix.parts[i-1].maxSqNorm {
			t.Fatalf("partition maxima not descending at %d", i)
		}
	}
}

// TestFullBudgetExact: with budget >= n every point in every partition is
// verified, so FH returns the exact answer.
func TestFullBudgetExact(t *testing.T) {
	data, queries := testData(t, dataset.FamilyClustered, 400, 12, 4)
	ix := Build(data, Config{Lambda: 24, M: 8, L: 2, Seed: 5})
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

func TestBudgetSharedAcrossPartitions(t *testing.T) {
	data, queries := testData(t, dataset.FamilyHeavyTail, 1000, 10, 6)
	ix := Build(data, Config{Lambda: 20, M: 4, L: 2, B: 0.7, Seed: 7})
	for _, budget := range []int{10, 100, 500} {
		for i := 0; i < queries.N; i++ {
			_, st := ix.Search(queries.Row(i), core.SearchOptions{K: 5, Budget: budget})
			// Proportional shares round up per partition, so allow the
			// ceiling slack of one candidate per partition.
			max := int64(budget + ix.Partitions())
			if st.Candidates > max {
				t.Fatalf("budget %d wildly exceeded: %d > %d", budget, st.Candidates, max)
			}
		}
	}
}

func TestRecallImprovesWithBudget(t *testing.T) {
	data, queries := testData(t, dataset.FamilyClustered, 2000, 16, 8)
	ix := Build(data, Config{Lambda: 32, M: 16, L: 2, Seed: 9})
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
	data, queries := testData(t, dataset.FamilyClustered, 300, 8, 10)
	a := Build(data, Config{Lambda: 16, M: 8, L: 2, Seed: 11})
	b := Build(data, Config{Lambda: 16, M: 8, L: 2, Seed: 11})
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

func TestAllEqualNormsSinglePartition(t *testing.T) {
	// Identical points produce one transformed norm, hence one partition.
	rows := make([][]float32, 100)
	for i := range rows {
		rows[i] = []float32{1, 2, 3, 4}
	}
	data := vec.FromRows(rows).AppendOnes()
	ix := Build(data, Config{Lambda: 10, M: 4, Seed: 12})
	if ix.Partitions() != 1 {
		t.Fatalf("equal norms must form a single partition, got %d", ix.Partitions())
	}
}

// TestFullTransformVariant: the exact tensor lift (no sampling) has
// dimension d(d+1)/2 and stays exact at full budget.
func TestFullTransformVariant(t *testing.T) {
	data, queries := testData(t, dataset.FamilyClustered, 300, 8, 20)
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
	data, queries := testData(t, dataset.FamilyClustered, 600, 10, 13)
	ix := Build(data, Config{Lambda: 20, M: 8, L: 2, Seed: 14})
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
