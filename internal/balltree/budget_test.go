package balltree

import (
	"slices"
	"testing"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

type budgetFixture struct {
	name     string
	spec     dataset.Spec
	n        int
	seed     int64
	leafSize int
	budgets  []int
}

// budgetFixtures are the inputs of the property table: a clustered set, where
// the order nodes are opened in decides recall, and a small uniform one with
// few, fat leaves, where a budget ends in the middle of a leaf. Each lists its
// budgets ascending; the data size is appended as the last.
var budgetFixtures = []budgetFixture{
	{"clustered", dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 16, Clusters: 8}, 3000, 12, 50, []int{1, 7, 30, 150, 600}},
	{"uniform", dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 10}, 1000, 10, 40, []int{1, 10, 100, 999}},
	{"single-point leaves", dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 10}, 1000, 10, 1, []int{1, 10, 100, 999}},
}

// TestBudgetedSearchProperties is the contract of a budgeted search, one row
// per property, over both kinds and every fixture.
func TestBudgetedSearchProperties(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, fx := range budgetFixtures {
			t.Run(fx.name, func(t *testing.T) { testBudgetedSearchProperties(t, kind, fx) })
		}
	})
}

func testBudgetedSearchProperties(t *testing.T, kind Kind, fx budgetFixture) {
	const k = 10
	raw := dataset.Dedup(dataset.Generate(fx.spec, fx.n, fx.seed))
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 20, 13)
	normalizeRows(queries)
	tree := Build(data, kind, Config{LeafSize: fx.leafSize, Seed: 3})
	n := tree.N()
	budgets := append(slices.Clone(fx.budgets), n)
	gt := linearscan.GroundTruth(data, queries, k)
	prefs := []core.Preference{core.PrefCenter, core.PrefLowerBound}

	// A spatially correlated attribute, so subtree summaries have something
	// to skip: the first coordinate, thresholded at its mean.
	points := make([]attr.Point, n)
	var mean float64
	for i := range points {
		x0 := float64(data.Row(i)[0])
		points[i].Floats = map[string]float64{"x0": x0}
		mean += x0 / float64(n)
	}
	store, err := attr.Build(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.AttachAttrs(store); err != nil {
		t.Fatal(err)
	}

	forQueries := func(f func(qi int, q []float32)) {
		for qi := 0; qi < queries.N; qi++ {
			f(qi, queries.Row(qi))
		}
	}

	t.Run("budget of n is exact", func(t *testing.T) {
		forQueries(func(qi int, q []float32) {
			for _, pref := range prefs {
				want, _ := tree.Search(q, core.SearchOptions{K: k, Preference: pref})
				for _, budget := range []int{n, n + 1000} {
					got, _ := tree.Search(q, core.SearchOptions{K: k, Preference: pref, Budget: budget})
					requireSameResults(t, "budget>=n", got, want)
				}
			}
		})
	})

	t.Run("candidates under a budget prefix those under a larger one", func(t *testing.T) {
		// An accept-all Filter sees exactly the verified candidates, in order,
		// and leaves every counter where the unfiltered search puts it.
		verified := func(q []float32, budget int) []int32 {
			var seq []int32
			opts := core.SearchOptions{K: k, Budget: budget}
			_, want := tree.Search(q, opts)
			opts.Filter = func(id int32) bool {
				seq = append(seq, id)
				return true
			}
			_, st := tree.Search(q, opts)
			if st != want {
				t.Fatalf("budget %d: accept-all filter stats %+v, unfiltered %+v", budget, st, want)
			}
			if int64(len(seq)) != st.Candidates || (budget > 0 && len(seq) > budget) {
				t.Fatalf("budget %d: filter accepted %d ids, stats count %d candidates", budget, len(seq), st.Candidates)
			}
			return seq
		}
		forQueries(func(qi int, q []float32) {
			verified(q, 0) // exact
			var prev []int32
			for _, budget := range budgets {
				seq := verified(q, budget)
				if len(seq) < len(prev) {
					t.Fatalf("query %d budget %d verified %d candidates, fewer than the %d of a smaller budget", qi, budget, len(seq), len(prev))
				}
				for i, id := range prev {
					if seq[i] != id {
						t.Fatalf("query %d budget %d: candidate %d is %d, was %d under the smaller budget", qi, budget, i, seq[i], id)
					}
				}
				prev = seq
			}
		})
		// The unfiltered (blocked) leaf scan: with K as large as the budget λ
		// stays infinite, so the answer is the set of verified candidates.
		forQueries(func(qi int, q []float32) {
			var prev []core.Result
			for _, budget := range budgets[:len(budgets)-1] {
				res, _ := tree.Search(q, core.SearchOptions{K: budgets[len(budgets)-2], Budget: budget})
				if len(res) != budget {
					t.Fatalf("query %d budget %d: %d candidates verified", qi, budget, len(res))
				}
				in := make(map[int32]bool, len(res))
				for _, r := range res {
					in[r.ID] = true
				}
				for _, r := range prev {
					if !in[r.ID] {
						t.Fatalf("query %d budget %d dropped candidate %d of the smaller budget", qi, budget, r.ID)
					}
				}
				prev = res
			}
		})
		// Hence recall never falls as the budget grows, and ends at 1.
		var recall float64
		for _, budget := range budgets {
			hits := 0
			forQueries(func(qi int, q []float32) {
				res, _ := tree.Search(q, core.SearchOptions{K: k, Budget: budget})
				hits += overlap(res, gt[qi])
			})
			r := float64(hits) / float64(k*queries.N)
			if r < recall {
				t.Fatalf("recall fell from %.4f to %.4f at budget %d", recall, r, budget)
			}
			recall = r
		}
		if recall != 1 {
			t.Fatalf("recall %.4f at budget n, want 1", recall)
		}
	})

	t.Run("repeatable", func(t *testing.T) {
		s := tree.NewSearcher()
		forQueries(func(qi int, q []float32) {
			for _, budget := range budgets {
				opts := core.SearchOptions{K: k, Budget: budget}
				want, wantSt := tree.Search(q, opts)
				got, gotSt := s.Search(q, opts, nil)
				requireSameResults(t, "repeat", got, want)
				if gotSt != wantSt {
					t.Fatalf("query %d budget %d: stats %+v, then %+v", qi, budget, wantSt, gotSt)
				}
			}
		})
	})

	t.Run("pred pushdown equals filter closure", func(t *testing.T) {
		pred := attr.FieldAtLeast("x0", mean)
		filter := func(id int32) bool { return float64(data.Row(int(id))[0]) >= mean }
		var skipped int64
		forQueries(func(qi int, q []float32) {
			for _, budget := range budgets {
				got, gotSt := tree.Search(q, core.SearchOptions{K: k, Budget: budget, Pred: pred})
				want, wantSt := tree.Search(q, core.SearchOptions{K: k, Budget: budget, Filter: filter})
				requireSameResults(t, "pred vs filter", got, want)
				if gotSt.Candidates != wantSt.Candidates {
					t.Fatalf("query %d budget %d: pred verified %d candidates, filter %d", qi, budget, gotSt.Candidates, wantSt.Candidates)
				}
				skipped += gotSt.FilterSkippedNodes
			}
		})
		if skipped == 0 {
			t.Fatal("no subtree was ever skipped: the pushdown path was not exercised")
		}
	})

	t.Run("both preferences give valid answers in different orders", func(t *testing.T) {
		differ := false
		forQueries(func(qi int, q []float32) {
			for _, budget := range budgets {
				var sts [2]core.Stats
				for pi, pref := range prefs {
					res, st := tree.Search(q, core.SearchOptions{K: k, Budget: budget, Preference: pref})
					sts[pi] = st
					if st.Candidates > int64(budget) || len(res) != min(k, int(st.Candidates)) {
						t.Fatalf("query %d budget %d %s: %d results from %d candidates", qi, budget, pref, len(res), st.Candidates)
					}
					for i, r := range res {
						if i > 0 && (r.Dist < res[i-1].Dist || (r.Dist == res[i-1].Dist && r.ID <= res[i-1].ID)) {
							t.Fatalf("query %d budget %d %s: rank %d out of (Dist, ID) order: %v", qi, budget, pref, i, res)
						}
						if want := vec.AbsDot(q, data.Row(int(r.ID))); r.Dist != want {
							t.Fatalf("query %d budget %d %s: id %d reported at %v, is at %v", qi, budget, pref, r.ID, r.Dist, want)
						}
					}
				}
				differ = differ || sts[0] != sts[1]
			}
		})
		if !differ {
			t.Fatal("the two preferences never opened nodes in a different order")
		}
	})
	if fx.leafSize == 1 {
		// A zero-radius ball has no radius to be relative to. Keyed as "last
		// unless exactly on the hyperplane" every leaf here would be opened in
		// arena order and five candidates would find the nearest neighbour of
		// about one query in twenty; ranked on the parent's radius they compete
		// by how near they lie.
		t.Run("zero-radius leaves compete by their offset", func(t *testing.T) {
			hits := 0
			forQueries(func(qi int, q []float32) {
				res, _ := tree.Search(q, core.SearchOptions{K: 1, Budget: 5})
				hits += overlap(res, gt[qi][:1])
			})
			if recall := float64(hits) / float64(queries.N); recall < 0.4 {
				t.Fatalf("recall@1 %.2f with 5 candidates over single-point leaves, want >= 0.4", recall)
			}
		})
	}
}
