package balltree

import (
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
)

// TestSearchCancelImmediate pins the cooperative-cancellation contract: a
// Cancel that fires before the first node visit stops the traversal at once,
// returning whatever (possibly nothing) the collector holds, without panic.
func TestSearchCancelImmediate(t *testing.T) { forKinds(t, testSearchCancelImmediate) }

func testSearchCancelImmediate(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 8}, 800, 4)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 3, 5)
	tree := Build(data, kind, Config{LeafSize: 25, Seed: 2})
	for i := 0; i < queries.N; i++ {
		res, st := tree.Search(queries.Row(i), core.SearchOptions{
			K:      5,
			Cancel: func() bool { return true },
		})
		if len(res) != 0 {
			t.Fatalf("query %d: immediate cancel verified %d results", i, len(res))
		}
		if st.Candidates != 0 || st.NodesVisited != 0 {
			t.Fatalf("query %d: immediate cancel did work: %+v", i, st)
		}
	}
}

// TestSearchCancelMidway cancels after a fixed number of polls and checks the
// search stops early yet returns valid (sorted, deduplicated) partial results.
func TestSearchCancelMidway(t *testing.T) { forKinds(t, testSearchCancelMidway) }

func testSearchCancelMidway(t *testing.T, kind Kind) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 8}, 3000, 4)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 3, 5)
	tree := Build(data, kind, Config{LeafSize: 25, Seed: 2})
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		// Both drivers: depth-first (no budget) and best-first (a budget).
		for _, budget := range []int{0, tree.N()} {
			_, full := tree.Search(q, core.SearchOptions{K: 5, Budget: budget})
			polls := 0
			res, st := tree.Search(q, core.SearchOptions{
				K:      5,
				Budget: budget,
				Cancel: func() bool { polls++; return polls > 4 },
			})
			if st.NodesVisited >= full.NodesVisited {
				t.Fatalf("query %d budget %d: canceled search visited %d nodes, full search %d",
					i, budget, st.NodesVisited, full.NodesVisited)
			}
			// The best-first driver abandons its frontier on the first poll
			// that fires; it does not drain it node by node.
			if budget > 0 && polls != 5 {
				t.Fatalf("query %d budget %d: %d polls, want the search to stop at the 5th", i, budget, polls)
			}
			for j := 1; j < len(res); j++ {
				if res[j].Dist < res[j-1].Dist {
					t.Fatalf("query %d budget %d: partial results unsorted: %v", i, budget, res)
				}
			}
		}
	}
}
