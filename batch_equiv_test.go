package p2h_test

// The batch surface's edges: unnormalized and empty query matrices. That
// batched answers are bitwise the per-query ones on every kind, shape and
// worker count is the oracle matrix's (oracle_test.go).

import (
	"testing"

	p2h "p2h"
)

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

	ix := p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 11})
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
