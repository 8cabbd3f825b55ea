package p2h_test

// The recall gate: every exact index must return recall 1.0 against the
// exhaustive linear scan on a generated dataset. CI runs this test as its
// own step (see .github/workflows/ci.yml), so storage-layout or kernel
// refactors cannot silently break correctness: a pruning bound that became
// unsound shows up here as recall < 1 long before any benchmark moves.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	p2h "p2h"
)

// exactIndexes enumerates the indexes that promise exact answers.
func exactIndexes(t testing.TB, data *p2h.Matrix) map[string]p2h.Index {
	return map[string]p2h.Index{
		"balltree":       p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBallTree, Seed: 3}),
		"bctree":         p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 3}),
		"kdtree":         p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindKDTree}),
		"sharded":        p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindSharded, Shards: 4, Seed: 3}),
		"dynamic":        p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindDynamic, Seed: 3}),
		"balltree-quant": p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBallTree, Seed: 3, Quantize: true}),
		"bctree-quant":   p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 3, Quantize: true}),
		"sharded-quant":  p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindSharded, Shards: 4, Seed: 3, Quantize: true}),
		"linearscan":     p2h.NewLinearScan(data), // its batched path against its own Search
	}
}

// gateHits is distance-based recall: a returned point counts as a hit when
// its distance is within the ground-truth k-th distance (the standard
// convention, robust to exact ties). want must be non-empty.
func gateHits(got, want []p2h.Result) int {
	kth := want[len(want)-1].Dist
	hits := 0
	for _, r := range got {
		if r.Dist <= kth*(1+1e-9)+1e-12 {
			hits++
		}
	}
	return hits
}

func TestRecallGateExactIndexes(t *testing.T) {
	const k = 10
	for _, set := range []string{"Sift", "Cifar-10"} {
		data := p2h.Dedup(p2h.GenerateDataset(set, 2000, 1))
		queries := p2h.GenerateQueries(data, 20, 2)
		scan := p2h.NewLinearScan(data)
		for name, ix := range exactIndexes(t, data) {
			hits, total := 0, 0
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				got, _ := ix.Search(q, p2h.SearchOptions{K: k})
				want, _ := scan.Search(q, p2h.SearchOptions{K: k})
				if len(got) != len(want) {
					t.Fatalf("%s/%s query %d: %d results, want %d", set, name, qi, len(got), len(want))
				}
				hits += gateHits(got, want)
				total += len(want)
			}
			if recall := float64(hits) / float64(total); math.Abs(recall-1) > 1e-12 {
				t.Errorf("%s/%s: recall %.6f, want exactly 1.0", set, name, recall)
			}
		}
	}
}

// TestRecallGateBudgeted is the floor under the approximate path: a BC-Tree
// allowed to verify 5 % of the points must still find at least half of the
// true top 10. A budgeted search that spends its candidates in traversal
// order instead of best-first fails this several times over (recall ≈ 0.1),
// so the frontier's gain cannot be lost silently.
func TestRecallGateBudgeted(t *testing.T) {
	// n = 10000: large enough that 5 % of the points is several leaves (at
	// the other gates' n = 2000 it is exactly one, and no order can help).
	const k, floor = 10, 0.5
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 10000, 1))
	queries := p2h.GenerateQueries(data, 40, 2)
	ix := p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindBCTree, Seed: 3})
	scan := p2h.NewLinearScan(data)
	hits, total := 0, 0
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		got, st := ix.Search(q, p2h.SearchOptions{K: k, Budget: data.N / 20})
		if st.Candidates > int64(data.N/20) {
			t.Fatalf("query %d verified %d candidates under budget %d", qi, st.Candidates, data.N/20)
		}
		want, _ := scan.Search(q, p2h.SearchOptions{K: k})
		hits += gateHits(got, want)
		total += len(want)
	}
	if recall := float64(hits) / float64(total); recall < floor {
		t.Errorf("bctree at a 5%% budget (n=%d): recall@%d %.3f, want >= %.2f", data.N, k, recall, floor)
	} else {
		t.Logf("bctree at a 5%% budget (n=%d): recall@%d %.3f", data.N, k, recall)
	}
}

// TestRecallGateFiltered runs the gate with a declarative predicate: exact
// indexes answering a filtered search through subtree pushdown must return
// recall 1.0 against the exhaustive filtered linear scan, so an unsound
// per-node attribute summary (one that prunes a subtree that held a match)
// shows up here directly.
func TestRecallGateFiltered(t *testing.T) {
	const k = 10
	for _, set := range []string{"Sift", "Cifar-10"} {
		data := p2h.Dedup(p2h.GenerateDataset(set, 2000, 1))
		queries := p2h.GenerateQueries(data, 20, 2)
		attrs := make([]p2h.PointAttrs, data.N)
		for i := range attrs {
			var tags []string
			if i%10 == 0 {
				tags = append(tags, "warm")
			}
			attrs[i] = p2h.PointAttrs{
				Tags:   tags,
				Floats: map[string]float64{"score": float64(i%1000) / 1000},
			}
		}
		scan := p2h.NewLinearScan(data)
		if err := p2h.AttachAttributes(scan, attrs); err != nil {
			t.Fatal(err)
		}
		for _, pred := range []*p2h.Pred{
			p2h.TagIs("warm"),
			p2h.FieldBetween("score", 0.2, 0.4),
			p2h.AllOf(p2h.TagIs("warm"), p2h.FieldAtLeast("score", 0.3)),
		} {
			opts := p2h.SearchOptions{K: k, Pred: pred}
			for name, ix := range exactIndexes(t, data) {
				if err := p2h.AttachAttributes(ix, attrs); err != nil {
					t.Fatalf("%s/%s: %v", set, name, err)
				}
				hits, total := 0, 0
				for qi := 0; qi < queries.N; qi++ {
					q := queries.Row(qi)
					got, _ := ix.Search(q, opts)
					want, _ := scan.Search(q, opts)
					if len(got) != len(want) {
						t.Fatalf("%s/%s pred %s query %d: %d results, want %d",
							set, name, pred.Canon(), qi, len(got), len(want))
					}
					if len(want) == 0 {
						continue
					}
					hits += gateHits(got, want)
					total += len(want)
				}
				if recall := float64(hits) / float64(total); math.Abs(recall-1) > 1e-12 {
					t.Errorf("%s/%s pred %s: recall %.6f, want exactly 1.0",
						set, name, pred.Canon(), recall)
				}
			}
		}
	}
}

// TestRecallGateBatchedPath runs the same gate through SearchBatch: the
// shared batched traversal must stay exact too, and — stronger — must agree
// with the per-query path result for result (exact answers are canonical,
// so the two executions cannot legitimately differ even on ties).
func TestRecallGateBatchedPath(t *testing.T) {
	const k = 10
	for _, set := range []string{"Sift", "Cifar-10"} {
		data := p2h.Dedup(p2h.GenerateDataset(set, 2000, 1))
		queries := p2h.GenerateQueries(data, 20, 2)
		scan := p2h.NewLinearScan(data)
		for name, ix := range exactIndexes(t, data) {
			batch := p2h.SearchBatch(ix, queries, p2h.SearchOptions{K: k}, 2)
			hits, total := 0, 0
			for qi := 0; qi < queries.N; qi++ {
				q := queries.Row(qi)
				want, _ := scan.Search(q, p2h.SearchOptions{K: k})
				seq, _ := ix.Search(q, p2h.SearchOptions{K: k})
				if len(batch[qi]) != len(want) {
					t.Fatalf("%s/%s query %d: %d results, want %d", set, name, qi, len(batch[qi]), len(want))
				}
				for i := range seq {
					if batch[qi][i] != seq[i] {
						t.Fatalf("%s/%s query %d rank %d: batched %+v != sequential %+v",
							set, name, qi, i, batch[qi][i], seq[i])
					}
				}
				hits += gateHits(batch[qi], want)
				total += len(want)
			}
			if recall := float64(hits) / float64(total); math.Abs(recall-1) > 1e-12 {
				t.Errorf("%s/%s batched: recall %.6f, want exactly 1.0", set, name, recall)
			}
		}
	}
}

// tieSet returns 2*pairs shuffled points in the plane, mirrored pairs (a, ±b)
// with b one of five values. Against the hyperplane x₁ = 0 — tieQueries — every
// point is at distance exactly b, so an exact top-k is decided by the order of
// ties almost everywhere: the case gateHits, which counts by distance, cannot
// see.
func tieSet(pairs int, seed int64) *p2h.Matrix {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float32, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		a, b := float32(rng.NormFloat64()), 0.25*float32(1+rng.Intn(5))
		rows = append(rows, []float32{a, b}, []float32{a, -b})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return p2h.FromRows(rows)
}

// tieQueries is the hyperplane x₁ = 0 five times over: as it is, flipped and
// scaled. None of it changes which points tie. Five is one group for the
// multi-query kernel and one query beside it.
func tieQueries() *p2h.Matrix {
	return p2h.FromRows([][]float32{{0, 1, 0}, {0, -1, 0}, {0, 2, 0}, {0, -3, 0}, {0, 0.5, 0}})
}

// checkTiesAgainstScan asserts that ix answers the tie queries exactly as the
// linear scan does — same ids in the same order, ties by ascending id — for
// k in {1,3,5,10}, through Search and SearchBatch, plain, with a Filter and
// with the equivalent Pred.
func checkTiesAgainstScan(t *testing.T, name string, ix p2h.Index, data *p2h.Matrix) {
	t.Helper()
	attrs := make([]p2h.PointAttrs, data.N)
	for i := range attrs {
		if i%3 != 0 {
			attrs[i].Tags = []string{"kept"}
		}
	}
	scan := p2h.NewLinearScan(data)
	for _, x := range []p2h.Index{scan, ix} {
		if err := p2h.AttachAttributes(x, attrs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	queries := tieQueries()
	for _, k := range []int{1, 3, 5, 10} {
		for mode, opts := range map[string]p2h.SearchOptions{
			"plain":  {K: k},
			"filter": {K: k, Filter: func(id int32) bool { return id%3 != 0 }},
			"pred":   {K: k, Pred: p2h.TagIs("kept")},
		} {
			batch := p2h.SearchBatch(ix, queries, opts, 1)
			for qi := 0; qi < queries.N; qi++ {
				want, _ := scan.Search(queries.Row(qi), opts)
				got, _ := ix.Search(queries.Row(qi), opts)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s k=%d query %d: Search %v, linear scan %v", name, mode, k, qi, got, want)
				}
				if !slices.Equal(batch[qi], want) {
					t.Fatalf("%s %s k=%d query %d: SearchBatch %v, linear scan %v", name, mode, k, qi, batch[qi], want)
				}
			}
		}
	}
}

// TestShardedBreaksTiesByGlobalID pins what labelled shard trees fixed: a
// shard tree used to report shard-local ids, so a tie at the k-th distance was
// cut by position in the shard and the "exact" answer was not the linear
// scan's (721 of 800 searches on sets like these). The trees speak global ids
// now and (Dist, ID) is one order in every kind.
func TestShardedBreaksTiesByGlobalID(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		data := tieSet(200, seed)
		ix := p2h.MustBuild(t, data, p2h.Spec{Kind: p2h.KindSharded, Shards: 3, Seed: seed})
		checkTiesAgainstScan(t, fmt.Sprintf("sharded seed %d", seed), ix, data)
	}
}

// TestExactIndexesBreakTiesByID runs the tie set through every index that
// promises exact answers: ids and order, not distances, must equal the linear
// scan's.
func TestExactIndexesBreakTiesByID(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		data := tieSet(200, seed)
		for name, ix := range exactIndexes(t, data) {
			checkTiesAgainstScan(t, name, ix, data)
		}
	}
}
