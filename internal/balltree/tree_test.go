package balltree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"p2h/internal/attr"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

func buildTestData(t *testing.T, family dataset.Family, n, d int, seed int64) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: family, RawDim: d, Clusters: 8}, n, seed)
	queries := dataset.GenerateQueries(raw, 10, seed+1)
	return raw.AppendOnes(), queries
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(vec.NewMatrix(0, 4), BC, Config{})
}

func TestBuildBasicInvariants(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		data, _ := buildTestData(t, dataset.FamilyClustered, 500, 16, 1)
		tree := Build(data, kind, Config{LeafSize: 20, Seed: 1})
		if tree.N() != 500 || tree.Dim() != 17 || tree.LeafSize() != 20 || tree.kind != kind {
			t.Fatalf("tree %s", tree)
		}
		checkTreeInvariants(t, tree)
	})
}

// TestPointLevelArraysRoundOutward runs the invariants — for the BC kind that
// is checkLeafStructures' outward-rounding property of the cone codes —
// over every data family, at a leaf size small enough for hundreds of leaves.
func TestPointLevelArraysRoundOutward(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, family := range []dataset.Family{dataset.FamilyClustered, dataset.FamilyUniform, dataset.FamilyHeavyTail} {
			data, _ := buildTestData(t, family, 3000, 24, 11)
			checkTreeInvariants(t, Build(data, kind, Config{LeafSize: 12, Seed: 4}))
		}
	})
}

// nodeCenters reconstructs the builder's table for a tree of either kind:
// row i is the centre node i's radius and leaf arrays were measured from. A
// Ball tree stores it. A BC tree stores the root's and the left children's
// rows; a right leaf's is recomputed as the centroid of its points and a right
// internal node's as the Lemma 1 combination of its children's, the builder's
// own arithmetic (a centroid is summed in float64 before it is rounded, so the
// order of the points — the one thing that differs here — does not show).
func nodeCenters(tree *Tree) *vec.Matrix {
	if tree.kind == Ball {
		return &tree.sec().centers
	}
	isRight := make([]bool, len(tree.nodes))
	for i := range tree.nodes {
		if n := &tree.nodes[i]; !n.isLeaf() {
			isRight[n.right] = true
		}
	}
	all := vec.NewMatrix(len(tree.nodes), tree.Dim())
	copy(all.Row(0), tree.sec().centers.Row(0))
	for i := len(tree.nodes) - 1; i >= 0; i-- { // children before parents
		n := &tree.nodes[i]
		if n.isLeaf() {
			copy(all.Row(i), directCentroid(tree, n))
			continue
		}
		copy(all.Row(i+1), tree.sec().centers.Row(int(n.leftRow))) // stored: overrides what was recomputed
		if isRight[i] {
			combineCenters(all.Row(i), int32(i), tree, all.Data)
		}
	}
	return all
}

// directCentroid is the centroid of the points node n covers, as the builder
// forms a leaf's.
func directCentroid(tree *Tree, n *nodeRec) []float32 {
	d := tree.Dim()
	c := make([]float32, d)
	vec.CentroidBlock(tree.sec().points.Data[int(n.start)*d:int(n.end)*d], make([]float64, d), c)
	return c
}

// TestCenterRows pins the layout: a Ball tree keeps a centre per node, a BC
// tree the root's and the left children's — (nodes+1)/2 rows, in arena order
// — and what a BC tree dropped is what the Ball build over the same splits
// computed directly, up to the float32 rounding Lemma 1 adds per level.
func TestCenterRows(t *testing.T) {
	data, _ := buildTestData(t, dataset.FamilyClustered, 2000, 16, 5)
	ball := Build(data, Ball, Config{LeafSize: 20, Seed: 1})
	bc := Build(data, BC, Config{LeafSize: 20, Seed: 1})
	if ball.sec().centers.N != ball.Nodes() {
		t.Fatalf("Ball tree holds %d centre rows for %d nodes", ball.sec().centers.N, ball.Nodes())
	}
	if bc.Nodes() != ball.Nodes() || bc.sec().centers.N != (bc.Nodes()+1)/2 {
		t.Fatalf("BC tree holds %d centre rows for %d nodes, want %d", bc.sec().centers.N, bc.Nodes(), (bc.Nodes()+1)/2)
	}
	row := int32(1)
	for i := range bc.nodes {
		n := &bc.nodes[i]
		if n.isLeaf() {
			if n.leftRow != noChild {
				t.Fatalf("leaf %d has centre row %d", i, n.leftRow)
			}
			continue
		}
		if n.leftRow != row || ball.nodes[i].leftRow != int32(i)+1 {
			t.Fatalf("node %d: left centre row %d (Ball %d), want %d (Ball %d)", i, n.leftRow, ball.nodes[i].leftRow, row, i+1)
		}
		row++
	}
	all := nodeCenters(bc)
	for i := range bc.nodes {
		for j, v := range all.Row(i) {
			want := float64(ball.sec().centers.Row(i)[j])
			if math.Abs(float64(v)-want) > 1e-5*math.Max(1, math.Abs(want)) {
				t.Fatalf("node %d centre[%d] = %v, Ball build has %v", i, j, v, want)
			}
		}
	}
}

// checkTreeInvariants verifies the structural properties both builds share
// (Section III-B): child partition (Eqs. 4-5 via contiguous ranges), leaf
// size <= N0, preorder arena, and ball containment (Eq. 7). For the BC kind
// it adds Algorithm 4's leaf structures: the cone structures as
// outward-rounded codes and the r_x derived from them — the Figure 4 relation
// (||x||sin phi)^2 + (||c|| - ||x||cos phi)^2 = r_x^2 — descending and never
// below ||x-c|| (see checkLeafStructures). A Ball tree must carry none of
// them.
func checkTreeInvariants(t *testing.T, tree *Tree) {
	t.Helper()
	seen := make([]bool, tree.N())
	for _, id := range tree.sec().ids {
		if seen[id] {
			t.Fatalf("id %d appears twice in reordering", id)
		}
		seen[id] = true
	}
	want := 0
	if tree.kind == BC {
		want = tree.N()
	}
	if len(tree.sec().xcos) != want || len(tree.sec().xsin) != want {
		t.Fatalf("%s point-level arrays sized %d/%d, want %d", tree.kind, len(tree.sec().xcos), len(tree.sec().xsin), want)
	}
	centers := nodeCenters(tree)
	var nodes, leaves int
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &tree.nodes[ni]
		center := centers.Row(int(ni))
		nodes++
		if n.count() <= 0 {
			t.Fatal("empty node")
		}
		wantNorm := 0.0
		if tree.kind == BC {
			wantNorm = vec.Norm(center)
		}
		if math.Abs(wantNorm-n.centerNorm) > 1e-9*(1+wantNorm) {
			t.Fatalf("%s centerNorm %v, want %v", tree.kind, n.centerNorm, wantNorm)
		}
		for pos := n.start; pos < n.end; pos++ {
			d := math.Sqrt(vec.SqDist(tree.sec().points.Row(int(pos)), center))
			if d > n.radius {
				t.Fatalf("point at pos %d outside ball: %v > %v", pos, d, n.radius)
			}
		}
		if n.isLeaf() {
			leaves++
			if int(n.count()) > tree.leafSize {
				t.Fatalf("leaf size %d > N0=%d", n.count(), tree.leafSize)
			}
			if tree.kind == BC {
				checkLeafStructures(t, tree, n, center)
			}
			return
		}
		l, r := &tree.nodes[ni+1], &tree.nodes[n.right]
		if l.start != n.start || r.end != n.end || l.end != r.start {
			t.Fatalf("children do not partition parent: [%d,%d) -> [%d,%d)+[%d,%d)",
				n.start, n.end, l.start, l.end, r.start, r.end)
		}
		walk(ni + 1)
		if int(n.right) != nodes {
			t.Fatalf("right child %d of %d does not follow the left subtree, which ends at %d", n.right, ni, nodes)
		}
		walk(n.right)
	}
	walk(0)
	if leaves != tree.Leaves() || nodes != tree.Nodes() {
		t.Fatalf("node accounting: counted %d/%d, tree says %d/%d", nodes, leaves, tree.Nodes(), tree.Leaves())
	}
}

// checkLeafStructures recomputes a BC leaf's point-level structures in
// float64 as the builder does (vec.ConePair) and checks the stored codes
// against them: each decodes to the float64 value moved by less than one step
// of the leaf's grid in the direction that can only lower a bound — xsin
// (with the guard of vec.Rejection under its root) up, |xcos| toward zero.
// The radius derived from a stored pair (vec.ConeGrid.Radius) is never below
// the distance it stands for, exceeds it by no more than pointRadiusRoom
// allows, and descends along the leaf; the leaf's own radius is the true
// maximum distance, slack-inflated and rounded up to float32, not the first
// derived one.
func checkLeafStructures(t *testing.T, tree *Tree, n *nodeRec, center []float32) {
	t.Helper()
	const ulp32 = 1.0 / (1 << 23)
	grid := tree.sec().grid(n)
	var maxDist float64
	prev := math.Inf(1)
	for pos := int(n.start); pos < int(n.end); pos++ {
		i := pos - int(n.start)
		x := tree.sec().points.Row(pos)
		r := math.Sqrt(vec.SqDist(x, center))
		maxDist = math.Max(maxDist, r)
		sq := grid.SqRadius(tree.sec().xcos[pos], tree.sec().xsin[pos])
		if sq > prev {
			t.Fatalf("derived radius not descending at %d: %v > %v", i, sq, prev)
		}
		prev = sq
		xcos, xsin := vec.ConePair(x, center, n.centerNorm)
		derived := grid.Radius(tree.sec().xcos[pos], tree.sec().xsin[pos])
		if room := pointRadiusRoom(&grid, len(x), vec.Norm(x), xsin, n.centerNorm, n.radius); derived < r || derived > r+room {
			t.Fatalf("derived radius %v of point %d at distance %v (room %v, ||c||=%v)", derived, i, r, room, n.centerNorm)
		}
		got, gotSin := grid.Pair(tree.sec().xcos[pos], tree.sec().xsin[pos])
		cosStep, sinStep := gridSteps(&grid)
		if math.Abs(got) > math.Abs(xcos) || math.Abs(xcos)-math.Abs(got) > cosStep || got*xcos < 0 {
			t.Fatalf("xcos[%d]=%v is not %v rounded toward zero within a step", i, got, xcos)
		}
		if gotSin < xsin || gotSin-xsin > sinStep {
			t.Fatalf("xsin[%d]=%v is not %v rounded up within a step", i, gotSin, xsin)
		}
	}
	want := maxDist * (1 + radiusSlack)
	if n.radius < want || n.radius > want*(1+ulp32)+math.SmallestNonzeroFloat32 || n.radius != float64(float32(n.radius)) {
		t.Fatalf("leaf radius %v is not max distance %v with slack, rounded up to float32", n.radius, want)
	}
}

// gridSteps returns g's two steps: the difference of adjacent grid values,
// which is exact.
func gridSteps(g *vec.ConeGrid) (cos, sin float64) {
	c0, s0 := g.Pair(0, 0)
	c1, s1 := g.Pair(1, 1)
	return c1 - c0, s1 - s0
}

// pointRadiusRoom is how far above ||x - c|| the radius derived for a
// d-dimensional x, of computed rejection xsin, on grid g may lie. Along the
// centre it is twice what vec.ConeGrid widens that leg by: an xcos step and a
// 2^-29 of ||c|| plus the leaf's radius. Across the centre it is what the
// stored rejection carries: an xsin step and the guard under vec.Rejection's
// root — a second-order term, guard^2/2xsin, unless x is all but collinear
// with the centre, where the guard (half as much again if the subtraction
// under the root erred upward) is the whole leg.
func pointRadiusRoom(g *vec.ConeGrid, d int, xnorm, xsin, centerNorm, radius float64) float64 {
	cosStep, sinStep := gridSteps(g)
	across := 1.5 * math.Sqrt(float64(d+1)*0x1p-49) * xnorm
	if xsin >= 0x1p-7*xnorm {
		across = float64(d+1) * 0x1p-42 * xnorm
	}
	return 2*(cosStep+0x1p-29*(centerNorm+radius)) + sinStep + across + 3*math.SmallestNonzeroFloat32
}

// TestLemma1CenterMatchesDirectCentroid verifies that a BC tree's internal
// centers, assembled bottom-up via Lemma 1, equal the direct centroid of the
// node's points (what the Ball build computes), up to float32 storage
// rounding.
func TestLemma1CenterMatchesDirectCentroid(t *testing.T) {
	data, _ := buildTestData(t, dataset.FamilyHeavyTail, 700, 10, 2)
	tree := Build(data, BC, Config{LeafSize: 30, Seed: 2})
	centers := nodeCenters(tree)
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &tree.nodes[ni]
		center := centers.Row(int(ni))
		direct := directCentroid(tree, n)
		for j := range direct {
			diff := math.Abs(float64(direct[j]) - float64(center[j]))
			scale := math.Max(1, math.Abs(float64(direct[j])))
			if diff > 1e-4*scale {
				t.Fatalf("center[%d] drifted: lemma1=%v direct=%v", j, center[j], direct[j])
			}
		}
		if !n.isLeaf() {
			walk(ni + 1)
			walk(n.right)
		}
	}
	walk(0)
}

func TestBuildDeterministic(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		data, _ := buildTestData(t, dataset.FamilyClustered, 400, 12, 3)
		a := Build(data, kind, Config{LeafSize: 25, Seed: 9})
		b := Build(data, kind, Config{LeafSize: 25, Seed: 9})
		if a.Nodes() != b.Nodes() || a.Height() != b.Height() {
			t.Fatal("same seed must build identical trees")
		}
		for i := range a.sec().ids {
			if a.sec().ids[i] != b.sec().ids[i] {
				t.Fatal("same seed must produce identical reordering")
			}
		}
	})
}

func TestBuildAllIdenticalPoints(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		rows := make([][]float32, 64)
		for i := range rows {
			rows[i] = []float32{1, 2, 3}
		}
		data := vec.FromRows(rows).AppendOnes()
		tree := Build(data, kind, Config{LeafSize: 8, Seed: 1})
		checkTreeInvariants(t, tree)
		if tree.nodes[0].radius > 1e-6 {
			t.Fatalf("radius of identical points should be ~0, got %v", tree.nodes[0].radius)
		}
	})
}

// TestRadiusIsMaxDistOfKeptCentre holds every node whose centre the tree
// keeps — every node of a Ball tree, the root and the left children of a BC
// tree — to the radius vec.MaxDistBlock over the node's block gives, with the
// slack, bit for bit (a BC leaf's rounded up to float32): the value the
// builder's sweep over the leaves must reproduce. It covers generated data, a
// set with a NaN coordinate (every ancestor of that point has no finite
// radius) and leaves full of duplicates.
func TestRadiusIsMaxDistOfKeptCentre(t *testing.T) {
	generated, _ := buildTestData(t, dataset.FamilyHeavyTail, 1500, 12, 6)
	withNaN := generated.Clone()
	withNaN.Row(700)[3] = float32(math.NaN())
	dups := vec.NewMatrix(600, 5)
	for i := 0; i < dups.N; i++ {
		for j := 0; j < 4; j++ {
			dups.Row(i)[j] = float32((i%20)*(j+1)) * 0.25
		}
		dups.Row(i)[4] = 1
	}
	forKinds(t, func(t *testing.T, kind Kind) {
		for name, data := range map[string]*vec.Matrix{"generated": generated, "nan": withNaN, "duplicates": dups} {
			tree := Build(data, kind, Config{LeafSize: 16, Seed: 2})
			sec, d := tree.sec(), tree.Dim()
			check := func(ni int, center []float32) {
				n := &tree.nodes[ni]
				_, maxDist := vec.MaxDistBlock(center, sec.points.Data[int(n.start)*d:int(n.end)*d])
				want := maxDist * (1 + radiusSlack)
				if kind == BC && n.isLeaf() {
					want = float64(up32(want))
				}
				if math.Float64bits(n.radius) != math.Float64bits(want) {
					t.Fatalf("%s node %d [%d, %d): radius %v (%#x), MaxDistBlock gives %v (%#x)",
						name, ni, n.start, n.end, n.radius, math.Float64bits(n.radius), want, math.Float64bits(want))
				}
			}
			if kind == Ball {
				for i := range tree.nodes {
					check(i, sec.centers.Row(i))
				}
				continue
			}
			check(0, sec.centers.Row(0))
			for i := range tree.nodes {
				if n := &tree.nodes[i]; !n.isLeaf() {
					check(i+1, sec.centers.Row(int(n.leftRow)))
				}
			}
		}
	})
}

func TestBuildSinglePoint(t *testing.T) {
	forKinds(t, func(t *testing.T, kind Kind) {
		data := vec.FromRows([][]float32{{1, 2}}).AppendOnes()
		tree := Build(data, kind, Config{})
		if tree.Nodes() != 1 || tree.Leaves() != 1 || tree.Height() != 1 {
			t.Fatalf("single point tree: %s", tree)
		}
		if tree.LeafSize() != DefaultLeafSize {
			t.Fatalf("default leaf size %d", tree.LeafSize())
		}
	})
}

func TestNodeCountBound(t *testing.T) {
	// With N0 >> 1 the paper notes the node count is well below n.
	forKinds(t, func(t *testing.T, kind Kind) {
		data, _ := buildTestData(t, dataset.FamilyClustered, 2000, 10, 4)
		tree := Build(data, kind, Config{LeafSize: 100, Seed: 1})
		if tree.Nodes() >= 2000/10 {
			t.Fatalf("too many nodes: %d", tree.Nodes())
		}
	})
}

// TestIndexBytesAccounting pins the paper's Table III "lightweight"
// comparison: at N0=100 both indexes stay below the data size (Section V-D),
// and BC-Tree reports exactly what it adds over Ball-Tree on the same splits
// — two n-size uint16 code arrays (Theorem 6's three less the derived r_x)
// and one centerNorm per node — and what it drops: the right children's
// centres, (nodes-1)/2 rows of d floats.
func TestIndexBytesAccounting(t *testing.T) {
	data, _ := buildTestData(t, dataset.FamilyClustered, 2000, 32, 5)
	ball := Build(data, Ball, Config{LeafSize: 100, Seed: 1})
	bc := Build(data, BC, Config{LeafSize: 100, Seed: 1})
	if ball.Nodes() != bc.Nodes() {
		t.Fatalf("same seed must split identically: %d vs %d nodes", ball.Nodes(), bc.Nodes())
	}
	if ball.IndexBytes() <= 0 || ball.DataBytes() <= 0 {
		t.Fatal("byte accounting must be positive")
	}
	extra := int64(bc.N())*2*2 + int64(bc.Nodes())*8 - int64(bc.Nodes()-1)/2*int64(bc.Dim())*4
	if got := bc.IndexBytes() - ball.IndexBytes(); got != extra {
		t.Fatalf("BC reports %d bytes over Ball, want %d", got, extra)
	}
	if bc.IndexBytes() >= bc.DataBytes() {
		t.Fatalf("index bytes %d should stay below data bytes %d at N0=100", bc.IndexBytes(), bc.DataBytes())
	}
}

// TestBCLighterThanBallOnSurrogates is the paper's "lightweight" claim as a
// count: on every Table II surrogate, at the default leaf size, a BC-Tree's
// index is smaller than a Ball-Tree's over the same splits — its point-level
// codes and node norms cost less than the right children's centres it drops.
// n is 20 000, or fewer where a 20 000-point matrix would pass 2^22 floats
// (Tiny and up, d >= 384), which only makes the BC side's saving per point
// larger. At the parent format, 8 bytes a point for the cone pair, Deep100M
// and GloVe failed here (20.47 vs 19.43 and 19.25 vs 17.25 B/point).
func TestBCLighterThanBallOnSurrogates(t *testing.T) {
	t.Parallel()
	for _, spec := range dataset.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			n := min(20000, (1<<22)/spec.RawDim)
			data := dataset.Generate(spec, n, 1).AppendOnes()
			ball := Build(data, Ball, Config{Seed: 1}).IndexBytes()
			bc := BuildOwned(data, nil, BC, Config{Seed: 1}).IndexBytes()
			perPoint := fmt.Sprintf("n=%d: BC-Tree %.2f B/point, Ball-Tree %.2f", n, float64(bc)/float64(n), float64(ball)/float64(n))
			if bc >= ball {
				t.Error(perPoint)
			}
			t.Log(perPoint)
		})
	}
}

// sliceBytes is the storage behind a slice: len x element size.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(len(s)) * int64(unsafe.Sizeof(zero))
}

// TestIndexBytesMatchesStorage ties the benchmark's bytes_per_point to the
// layout: IndexBytes is the sum of len x element size over the arena's
// slices, so changing what the tree stores without changing what it reports
// (or the reverse) fails here. The one adjustment is the Ball kind's node
// record, which carries a centerNorm field the kind never reads; IndexBytes
// does not charge Ball-Tree for it (the paper's Table III).
func TestIndexBytesMatchesStorage(t *testing.T) {
	data, _ := buildTestData(t, dataset.FamilyClustered, 1500, 24, 5)
	points := make([]attr.Point, data.N)
	for i := range points {
		points[i] = attr.Point{Tags: []string{"even", "odd"}[i%2 : i%2+1], Ints: map[string]int64{"i": int64(i)}}
	}
	store, err := attr.Build(points)
	if err != nil {
		t.Fatal(err)
	}
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, tc := range []struct {
			name       string
			attributed bool
		}{{"plain", false}, {"attributed", true}} {
			tree := Build(data, kind, Config{LeafSize: 40, Seed: 3})
			if tc.attributed {
				if err := tree.AttachAttrs(store); err != nil {
					t.Fatal(err)
				}
			}
			want := sliceBytes(tree.sec().centers.Data) + sliceBytes(tree.nodes) + sliceBytes(tree.sec().ids) +
				sliceBytes(tree.sec().xcos) + sliceBytes(tree.sec().xsin)
			if kind == Ball {
				want -= int64(len(tree.nodes)) * int64(unsafe.Sizeof(tree.nodes[0].centerNorm))
			}
			if tree.attrs != nil {
				want += tree.attrs.MemBytes() + tree.attrSums.MemBytes()
			}
			if got := tree.IndexBytes(); got != want {
				t.Errorf("%s: IndexBytes() = %d, the arena's slices hold %d", tc.name, got, want)
			}
			if got, want := tree.DataBytes(), sliceBytes(tree.sec().points.Data); got != want {
				t.Errorf("%s: DataBytes() = %d, the point copy holds %d", tc.name, got, want)
			}
			// What IndexBytes counts is all the arena holds: the two tables
			// the builder grows by append keep no slack.
			if sec := tree.sec(); cap(sec.centers.Data) != len(sec.centers.Data) || cap(tree.nodes) != len(tree.nodes) {
				t.Errorf("%s: centre table cap %d for len %d, node arena cap %d for len %d", tc.name,
					cap(sec.centers.Data), len(sec.centers.Data), cap(tree.nodes), len(tree.nodes))
			}
		}
	})
}

func TestRadiusMonotoneDown(t *testing.T) {
	// Radii shrink (weakly) from root to leaves on typical data: each child
	// covers a subset. Not a theorem for arbitrary centers, but holds for
	// centroid balls on blobby data; treat violations beyond slack as bugs.
	forKinds(t, func(t *testing.T, kind Kind) {
		data, _ := buildTestData(t, dataset.FamilyClustered, 800, 8, 6)
		tree := Build(data, kind, Config{LeafSize: 50, Seed: 2})
		var walk func(ni int32, parentR float64)
		walk = func(ni int32, parentR float64) {
			n := &tree.nodes[ni]
			if n.radius > parentR*2+1e-9 {
				t.Fatalf("child radius %v wildly exceeds parent %v", n.radius, parentR)
			}
			if !n.isLeaf() {
				walk(ni+1, n.radius)
				walk(n.right, n.radius)
			}
		}
		walk(0, math.Inf(1))
	})
}

// TestBuildOwnedIsBuild: handing the builder a private matrix and no labels
// gives the tree Build gives — the same bytes on every surrogate of Table II,
// both kinds — and Build leaves its argument alone.
func TestBuildOwnedIsBuild(t *testing.T) {
	t.Parallel()
	for _, spec := range dataset.Catalog() {
		data := dataset.Dedup(dataset.Generate(spec, 300, 5)).AppendOnes()
		shared := data.Clone()
		forKinds(t, func(t *testing.T, kind Kind) {
			cfg := Config{LeafSize: 16, Seed: 6}
			var built, owned bytes.Buffer
			if err := Build(data, kind, cfg).Save(&built); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(data.Data, shared.Data) {
				t.Fatalf("%s: Build reordered the matrix it was lent", spec.Name)
			}
			rows := data.Clone()
			tree := BuildOwned(rows, nil, kind, cfg)
			if err := tree.Save(&owned); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(built.Bytes(), owned.Bytes()) {
				t.Fatalf("%s: BuildOwned over a clone saves other bytes than Build", spec.Name)
			}
			if points, _ := tree.Rows(); &points.Data[0] != &rows.Data[0] || len(points.Data) != len(rows.Data) {
				t.Fatalf("%s: BuildOwned made a second matrix", spec.Name)
			}
		})
	}
}
