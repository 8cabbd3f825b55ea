//go:build !race

// Counts of allocations and of work, pinned where the race detector's
// instrumentation would change the one and slow the other past its worth.

package balltree

import (
	"testing"

	"p2h/internal/attr"
	"p2h/internal/core"
)

// TestSearcherZeroAllocs pins the steady-state allocation count of the
// pooled execution engine at zero: once a Searcher's scratch (top-k heap,
// leaf buffer, survivor list) and the caller's dst have grown to their
// working size, repeated exact, budgeted, Filter, predicate and
// liveness-bitmap searches must not allocate at all. Guarded from -race
// builds, where the runtime's instrumentation allocates.
func TestSearcherZeroAllocs(t *testing.T) {
	forKinds(t, testSearcherZeroAllocs)
}

func testSearcherZeroAllocs(t *testing.T, kind Kind) {
	tree, queries := batchSetup(t, kind, 2000, 8, 21)
	points := make([]attr.Point, tree.N())
	for i := range points {
		if i%10 == 0 {
			points[i].Tags = []string{"sel10"}
		}
	}
	store, err := attr.Build(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.AttachAttrs(store); err != nil {
		t.Fatal(err)
	}
	keep := func(id int32) bool { return id%10 == 0 }
	live := make(core.Bitmap, core.BitmapWords(tree.N()))
	for i := range live {
		live[i] = 0x5555555555555555 // every other id
	}
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
		live core.Bitmap
	}{
		{"exact", core.SearchOptions{K: 10}, nil},
		{"budgeted", core.SearchOptions{K: 10, Budget: 200}, nil},
		{"filter", core.SearchOptions{K: 10, Filter: keep}, nil},
		{"pred", core.SearchOptions{K: 10, Pred: attr.TagIs("sel10")}, nil},
		{"live", core.SearchOptions{K: 10}, live},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tree.NewSearcher()
			var dst []core.Result
			// Warm up: grow every scratch buffer to its steady-state size.
			for qi := 0; qi < queries.N; qi++ {
				dst, _ = s.SearchLive(queries.Row(qi), tc.opts, tc.live, dst[:0])
			}
			qi := 0
			allocs := testing.AllocsPerRun(100, func() {
				dst, _ = s.SearchLive(queries.Row(qi%queries.N), tc.opts, tc.live, dst[:0])
				qi++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Search allocated %.1f times per op, want 0", allocs)
			}
		})
	}
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

// TestDerivedRadiusPrunesLikeAStoredOne pins what deriving r_x from coded cone
// pairs costs where it costs the most. With a stored float32 r_x array 500
// exact searches of the offset-1000 set verified 47 835 338 candidates, and
// with a float32 cone pair 47 835 359. The 16-bit codes let through 47 835 888,
// 1.15e-5 more than the stored radius: on this set the cone bound decides
// (a tighter derived radius moves nothing), and its xsin is now resolved to
// a 65535th of the leaf's radius instead of to a float32 step of itself. The
// count is exact on every platform; the pin allows 1.5e-5.
func TestDerivedRadiusPrunesLikeAStoredOne(t *testing.T) {
	if testing.Short() {
		t.Skip("the pinned count is of the n = 100 000 tree")
	}
	c := lowDimCases[2]
	data, queries := c.generate(100000, 500)
	tree := Build(data, BC, Config{LeafSize: c.leafSize, Seed: c.seed})
	var candidates int64
	for qi := 0; qi < queries.N; qi++ {
		_, st := tree.Search(queries.Row(qi), core.SearchOptions{K: 10})
		candidates += st.Candidates
	}
	const stored = 47835338
	if float64(candidates) > stored*(1+1.5e-5) {
		t.Errorf("%s: %d candidates, %d with a stored r_x", c.name, candidates, stored)
	}
	t.Logf("%s: %d candidates, %+d against a stored r_x", c.name, candidates, candidates-stored)
}
