package p2h_test

// The quality floors under the approximate path. Exactness — every exact
// kind answering bitwise like the linear scan, ties included — is the oracle
// matrix's (oracle_test.go); these gates hold what a budget buys. CI runs
// both beside the matrix (see .github/workflows/ci.yml).

import (
	"testing"

	p2h "p2h"
)

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

// TestIntegrationBudgetMonotonicity: on every row of oracleKinds, growing the
// budget never hurts recall by more than sweep noise, and the full budget is
// exact.
func TestIntegrationBudgetMonotonicity(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 1500, 3))
	queries := p2h.GenerateQueries(data, 10, 4)
	gt := p2h.GroundTruth(data, queries, 10)
	budgets := []int{15, 150, 750, data.N}
	for _, row := range oracleKinds {
		ix := p2h.MustBuild(t, data, row.spec)
		var prev float64 = -1
		for _, budget := range budgets {
			var recall float64
			for qi := 0; qi < queries.N; qi++ {
				res, st := ix.Search(queries.Row(qi), p2h.SearchOptions{K: 10, Budget: budget})
				recall += p2h.Recall(res, gt[qi])
				slack := int64(0)
				if row.spec.Kind == p2h.KindFH || row.spec.Kind == p2h.KindSharded {
					slack = 8 // per-partition/per-shard ceil rounding
				}
				if st.Candidates > int64(budget)+slack {
					t.Fatalf("%s budget %d: verified %d", row.name, budget, st.Candidates)
				}
			}
			recall /= float64(queries.N)
			if recall < prev-0.05 {
				t.Fatalf("%s: recall dropped %v -> %v at budget %d", row.name, prev, recall, budget)
			}
			prev = recall
		}
		if prev < 1-1e-9 {
			t.Fatalf("%s: full budget recall %v", row.name, prev)
		}
	}
}
