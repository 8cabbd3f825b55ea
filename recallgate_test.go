package p2h_test

// The recall gate: every exact index must return recall 1.0 against the
// exhaustive linear scan on a generated dataset. CI runs this test as its
// own step (see .github/workflows/ci.yml), so storage-layout or kernel
// refactors cannot silently break correctness: a pruning bound that became
// unsound shows up here as recall < 1 long before any benchmark moves.

import (
	"math"
	"testing"

	p2h "p2h"
)

// exactIndexes enumerates the indexes that promise exact answers.
func exactIndexes(data *p2h.Matrix) map[string]p2h.Index {
	return map[string]p2h.Index{
		"balltree":       p2h.NewBallTree(data, p2h.BallTreeOptions{Seed: 3}),
		"bctree":         p2h.NewBCTree(data, p2h.BCTreeOptions{Seed: 3}),
		"kdtree":         p2h.NewKDTree(data, p2h.KDTreeOptions{}),
		"sharded":        p2h.NewSharded(data, p2h.ShardedOptions{Shards: 4, Seed: 3}),
		"dynamic":        p2h.NewDynamic(data, p2h.DynamicOptions{Seed: 3}),
		"balltree-quant": p2h.NewBallTree(data, p2h.BallTreeOptions{Seed: 3, Quantize: true}),
		"bctree-quant":   p2h.NewBCTree(data, p2h.BCTreeOptions{Seed: 3, Quantize: true}),
		"sharded-quant":  p2h.NewSharded(data, p2h.ShardedOptions{Shards: 4, Seed: 3, Quantize: true}),
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
		for name, ix := range exactIndexes(data) {
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
	ix := p2h.NewBCTree(data, p2h.BCTreeOptions{Seed: 3})
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
			for name, ix := range exactIndexes(data) {
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
		for name, ix := range exactIndexes(data) {
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
