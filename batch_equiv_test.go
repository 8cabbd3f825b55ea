package p2h_test

// Batch-vs-sequential equivalence: p2h.SearchBatch and the native
// BatchIndex surfaces must return results bitwise identical (values and
// ordering) to per-query Search calls, across every execution regime —
// exact (shared batched traversal), budgeted and filtered (per-query
// fallback inside the batch), k > n, and any worker count. Exact results
// are canonical (the unique k smallest (Dist, ID) pairs; see internal/exec),
// which is what makes this equality exact rather than approximate.

import (
	"testing"

	p2h "p2h"
)

func equivIndexes(t testing.TB, data *p2h.Matrix) map[string]p2h.Index {
	return map[string]p2h.Index{
		"balltree": p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBallTree, Seed: 5}),
		"bctree":   p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 5}),
		"sharded":  p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindSharded, Shards: 4, Seed: 5}),
		"dynamic":  p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindDynamic, Seed: 5}), // no native batch: loop fallback
		// The batched scan: 40 queries are ten groups of the kernel's four,
		// three workers' chunks of 13 and 14 leave a remainder each.
		"linearscan": p2h.NewLinearScan(data),
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Cifar-10", 1500, 7))
	queries := p2h.GenerateQueries(data, 40, 8)
	n := data.N

	cases := []struct {
		name string
		opts p2h.SearchOptions
	}{
		{"exact-k1", p2h.SearchOptions{K: 1}},
		{"exact-k10", p2h.SearchOptions{K: 10}},
		{"exact-kBig", p2h.SearchOptions{K: n + 10}}, // k > n
		{"budget", p2h.SearchOptions{K: 10, Budget: n / 20}},
		{"filtered", p2h.SearchOptions{K: 10, Filter: func(id int32) bool { return id%5 != 0 }}},
	}
	for name, ix := range equivIndexes(t, data) {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				want := make([][]p2h.Result, queries.N)
				for qi := 0; qi < queries.N; qi++ {
					want[qi], _ = ix.Search(queries.Row(qi), tc.opts)
				}
				for _, workers := range []int{1, 3} {
					got := p2h.SearchBatch(ix, queries, tc.opts, workers)
					requireEqualBatches(t, got, want)
				}
				if bi, ok := ix.(p2h.BatchIndex); ok {
					got, stats := bi.SearchBatch(queries, tc.opts)
					requireEqualBatches(t, got, want)
					if len(stats) != queries.N {
						t.Fatalf("stats length %d, want %d", len(stats), queries.N)
					}
				}
			})
		}
	}
}

func requireEqualBatches(t *testing.T, got, want [][]p2h.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d batches, want %d", len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if got[qi][i] != want[qi][i] {
				t.Fatalf("query %d rank %d: %+v != %+v (batched result must be bitwise identical)",
					qi, i, got[qi][i], want[qi][i])
			}
		}
	}
}

// TestSearchBatchNormalizesLikeSearch feeds deliberately unnormalized
// queries: the batched path must canonicalize them exactly as checkQuery
// does per query, including leaving the caller's matrix untouched.
func TestSearchBatchNormalizesLikeSearch(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 600, 9))
	queries := p2h.GenerateQueries(data, 10, 10)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		for i := range q {
			q[i] *= 3.5 // uniform rescale: same hyperplane, non-unit normal
		}
	}
	before := append([]float32(nil), queries.Data...)

	ix := p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 11}).(p2h.BatchIndex)
	got, _ := ix.SearchBatch(queries, p2h.SearchOptions{K: 5})
	for qi := 0; qi < queries.N; qi++ {
		want, _ := ix.Search(queries.Row(qi), p2h.SearchOptions{K: 5})
		for i := range want {
			if got[qi][i] != want[i] {
				t.Fatalf("query %d rank %d: %+v != %+v", qi, i, got[qi][i], want[i])
			}
		}
	}
	for i := range before {
		if queries.Data[i] != before[i] {
			t.Fatal("SearchBatch must not mutate the caller's query matrix")
		}
	}
}

func TestSearchBatchEmptyQueries(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 200, 12))
	ix := p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBallTree, Seed: 13})
	empty := &p2h.Matrix{N: 0, D: data.D + 1}
	if out := p2h.SearchBatch(ix, empty, p2h.SearchOptions{K: 3}, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}
