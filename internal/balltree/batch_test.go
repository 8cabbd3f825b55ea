package balltree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// forKinds runs f once per kind: every behaviour after Build is one code
// path, so every test of it is a row over {Ball, BC}.
func forKinds(t *testing.T, f func(t *testing.T, kind Kind)) {
	for _, kind := range []Kind{Ball, BC} {
		t.Run(kind.String(), func(t *testing.T) { f(t, kind) })
	}
}

// batchSetup builds a tree over n deduplicated clustered points, d = 24, with
// nq unit-normal queries, for the tests of counters and allocations.
func batchSetup(t *testing.T, kind Kind, n, nq int, seed int64) (*Tree, *vec.Matrix) {
	t.Helper()
	raw := dataset.Dedup(dataset.Generate(dataset.Spec{
		Name: "t", Family: dataset.FamilyClustered, RawDim: 24, Clusters: 8,
	}, n, seed))
	queries := dataset.GenerateQueries(raw, nq, seed+1)
	normalizeRows(queries)
	return Build(raw.AppendOnes(), kind, Config{LeafSize: 32, Seed: seed}), queries
}

// normalizeRows rescales every query to a unit normal, the contract of the
// tree-level Search/SearchBatch (p2h.checkQuery does this at the API
// boundary).
func normalizeRows(queries *vec.Matrix) {
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		vec.Normalize(q[:len(q)-1])
	}
}

// requireSameResults asserts bitwise-equal results, including order.
func requireSameResults(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
	}
}

func TestSearchBatchPanicsOnDimMismatch(t *testing.T) {
	tree, _ := batchSetup(t, BC, 300, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.SearchBatch(vec.NewMatrix(2, tree.Dim()+1), core.SearchOptions{K: 1})
}

// TestScanLeafTileMatchesQueryByQuery drives scanLeaf on one leaf of a
// two-dimensional set with nine active queries — two tiles for the
// multi-query kernel and one query left over — whose prefixes differ inside a
// tile: the whole leaf (a collector that is not full) beside cuts of several
// lengths in the first, so the kernel takes the shortest and each query
// finishes its own; an empty one (the centre far beyond lambda) in the second,
// which leaves the kernel nothing. k exceeds the leaf, so every verified row
// is in its collector at the end. The tiled queries' collectors and counters
// must come out as they do when each query cuts, verifies and pushes in turn,
// which is the reference written out below; the leftover ninth must come out
// as the single-query pipeline (scanWithPruning) leaves it.
func TestScanLeafTileMatchesQueryByQuery(t *testing.T) {
	const k, nq = 256, 9
	const whole, partial, none = 0, 1, 2
	kinds := [nq]int{whole, partial, whole, partial, partial, whole, none, partial, whole}
	rng := rand.New(rand.NewSource(7))
	data := vec.NewMatrix(3000, 3)
	for i := 0; i < data.N; i++ {
		copy(data.Row(i), []float32{float32(1000 + rng.NormFloat64()), float32(1000 + rng.NormFloat64()), 1})
	}
	tree := Build(data, BC, Config{LeafSize: 100, Seed: 3})
	var leaf *nodeRec
	for i := range tree.nodes {
		if n := &tree.nodes[i]; n.isLeaf() && (leaf == nil || n.count() > leaf.count()) {
			leaf = n
		}
	}
	start, m, d := int(leaf.start), int(leaf.count()), tree.sec().points.D
	centre := make([]float32, d)
	for r := start; r < start+m; r++ {
		for j, v := range tree.sec().points.Row(r) {
			centre[j] += v / float32(m)
		}
	}

	queries := vec.NewMatrix(nq, d)
	act, ips := make([]int32, nq), make([]float64, nq)
	seed := make([][]core.Result, nq) // what each collector holds on arrival
	for qi := 0; qi < nq; qi++ {
		q := queries.Row(qi)
		q[0], q[1] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		vec.Normalize(q[:2])
		q[2] = -float32(vec.Dot(q[:2], centre[:2]))
		act[qi], ips[qi] = int32(qi), vec.Dot(q, centre)
		qnorm := vec.Norm(q)    // bounds are |<q,c>| - ||q|| r, in the lifted space
		if kinds[qi] == whole { // not full: lambda is +Inf
			seed[qi] = []core.Result{{ID: -1, Dist: 0.5}}
			continue
		}
		// Full at a lambda every row beats, the centre beyond it by a
		// fraction of the leaf's radius, or by ten radii.
		const lambda = 1e3
		for i := 0; i < k; i++ {
			seed[qi] = append(seed[qi], core.Result{ID: int32(-1 - i), Dist: lambda})
		}
		ips[qi] = lambda + qnorm*leaf.radius*(0.2+0.07*float64(qi))
		if kinds[qi] == none {
			ips[qi] = lambda + 10*qnorm*leaf.radius
		}
	}

	opts := core.SearchOptions{K: k}
	s := tree.NewSearcher()
	s.begin(queries.Data, nq, opts, nil)
	for qi, rs := range seed {
		for _, r := range rs {
			s.qs[qi].tk.Push(r.ID, r.Dist)
		}
	}
	s.scr.Wide.Reset(queries.Data, d)
	const kappa = 1e-9
	s.scanLeaf(leaf, act, ips, kappa)

	var cuts [nq]int
	for qi := 0; qi < nq-1; qi++ {
		tk := core.NewTopK(k)
		for _, r := range seed[qi] {
			tk.Push(r.ID, r.Dist)
		}
		qnorm := s.qs[qi].qnorm
		grid := tree.sec().grid(leaf)
		cut := vec.BallCutoff(math.Abs(ips[qi])-qnorm*kappa, qnorm, tk.Lambda(),
			&grid, tree.sec().xcos[start:start+m], tree.sec().xsin[start:start+m])
		dists := make([]float64, cut)
		vec.DotBlock(queries.Row(qi), tree.sec().points.Data[start*d:(start+cut)*d], dists)
		for r, v := range dists {
			tk.Push(tree.sec().ids[start+r], math.Abs(v))
		}
		want := core.Stats{LeavesVisited: 1, IPCount: int64(cut), Candidates: int64(cut), PrunedPoints: int64(m - cut)}
		if s.qs[qi].st != want {
			t.Fatalf("query %d: counters %+v, query by query %+v", qi, s.qs[qi].st, want)
		}
		requireSameResults(t, fmt.Sprintf("query %d", qi), s.qs[qi].tk.DrainInto(nil), tk.Results())
		cuts[qi] = cut
		if (kinds[qi] == whole) != (cut == m) || (kinds[qi] == none) != (cut == 0) {
			t.Fatalf("query %d: prefix %d of %d is not the case this test set up", qi, cut, m)
		}
	}
	last := nq - 1
	one := tree.NewSearcher()
	one.begin(queries.Row(last), 1, opts, nil)
	for _, r := range seed[last] {
		one.qs[0].tk.Push(r.ID, r.Dist)
	}
	one.scanWithPruning(&one.qs[0], leaf, math.Abs(ips[last])-one.qs[0].qnorm*kappa)
	if s.qs[last].st != one.qs[0].st || one.qs[0].st.Candidates == 0 {
		t.Fatalf("leftover query: counters %+v, single-query pipeline %+v", s.qs[last].st, one.qs[0].st)
	}
	requireSameResults(t, "leftover query", s.qs[last].tk.DrainInto(nil), one.qs[0].tk.DrainInto(nil))
	if cuts[1] == cuts[3] {
		t.Fatalf("prefixes %v: the first group's cuts should differ", cuts)
	}
}
