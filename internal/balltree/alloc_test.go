//go:build !race

package balltree

import (
	"testing"

	"p2h/internal/core"
)

// TestSearcherZeroAllocs pins the steady-state allocation count of the
// pooled execution engine at zero: once a Searcher's scratch (top-k heap,
// leaf buffer) and the caller's dst have grown to their working size,
// repeated exact and budgeted searches must not allocate at all. Guarded
// from -race builds, where the runtime's instrumentation allocates.
func TestSearcherZeroAllocs(t *testing.T) {
	forKinds(t, testSearcherZeroAllocs)
}

func testSearcherZeroAllocs(t *testing.T, kind Kind) {
	tree, queries := batchSetup(t, kind, 2000, 8, 21)
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
	}{
		{"exact", core.SearchOptions{K: 10}},
		{"budgeted", core.SearchOptions{K: 10, Budget: 200}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tree.NewSearcher()
			var dst []core.Result
			// Warm up: grow every scratch buffer to its steady-state size.
			for qi := 0; qi < queries.N; qi++ {
				dst, _ = s.Search(queries.Row(qi), tc.opts, dst[:0])
			}
			qi := 0
			allocs := testing.AllocsPerRun(100, func() {
				dst, _ = s.Search(queries.Row(qi%queries.N), tc.opts, dst[:0])
				qi++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Search allocated %.1f times per op, want 0", allocs)
			}
		})
	}
}

// TestQuantSearcherZeroAllocs pins the quantized leaf scan at zero
// steady-state allocations: the fitted filter's weight slice and the
// survivor scratch grow once during warmup and are reused ever after.
func TestQuantSearcherZeroAllocs(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		_, quantized, queries := quantPair(t, kind, 2000, 8, 23)
		s := quantized.NewSearcher()
		opts := core.SearchOptions{K: 10}
		var dst []core.Result
		for qi := 0; qi < queries.N; qi++ {
			dst, _ = s.Search(queries.Row(qi), opts, dst[:0])
		}
		qi := 0
		allocs := testing.AllocsPerRun(100, func() {
			dst, _ = s.Search(queries.Row(qi%queries.N), opts, dst[:0])
			qi++
		})
		if allocs != 0 {
			t.Fatalf("steady-state quantized Search allocated %.1f times per op, want 0", allocs)
		}
	})
}

// TestTreeSearchSteadyStateAllocs pins Tree.Search (which must allocate the
// returned results slice, but nothing else) at exactly one allocation per
// call in steady state.
func TestTreeSearchSteadyStateAllocs(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		tree, queries := batchSetup(t, kind, 2000, 8, 22)
		opts := core.SearchOptions{K: 10}
		for qi := 0; qi < queries.N; qi++ {
			tree.Search(queries.Row(qi), opts)
		}
		qi := 0
		allocs := testing.AllocsPerRun(100, func() {
			tree.Search(queries.Row(qi%queries.N), opts)
			qi++
		})
		if allocs > 1 {
			t.Fatalf("steady-state Tree.Search allocated %.1f times per op, want <= 1 (the results slice)", allocs)
		}
	})
}

// TestBuildAllocsDoNotFollowNodes: the builder's scratch (centroid
// accumulator, split distances, leaf points) is sized once per build, so what
// a build allocates is the tree's own slices — the two that grow by append a
// logarithmic number of times — and not something per node: a tree of
// thousands of nodes is built in a few dozen allocations.
func TestBuildAllocsDoNotFollowNodes(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		tree, _ := batchSetup(t, kind, 4000, 8, 24)
		data, _ := tree.Rows()
		var nodes int
		allocs := testing.AllocsPerRun(3, func() {
			nodes = Build(data, kind, Config{LeafSize: 4, Seed: 1}).Nodes()
		})
		if nodes < 1500 || allocs > 80 {
			t.Fatalf("building %d nodes allocated %.0f times, want a few dozen for thousands of nodes", nodes, allocs)
		}
	})
}
