package balltree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// checkDerivedRadii is the property the tree rests on now that it stores no
// r_x: over every leaf point, the radius derived from the stored cone pair is
// never below the distance to the centre the builder formed, within
// pointRadiusRoom of it, and descending along the leaf (checkTreeInvariants
// asserts all three); and vec.BallCutoff on the leaf's arrays returns what a
// linear scan over the same derived values returns, for thresholds at, just
// below and just above every point's radius, where one rounding decides.
func checkDerivedRadii(t *testing.T, tree *Tree) {
	t.Helper()
	checkTreeInvariants(t, tree)
	for ni := range tree.nodes {
		n := &tree.nodes[ni]
		if !n.isLeaf() {
			continue
		}
		xcos, xsin := tree.xcos[n.start:n.end], tree.xsin[n.start:n.end]
		for i := range xcos {
			r := vec.PointRadius(n.centerNorm, xcos[i], xsin[i])
			for _, t1 := range []float64{math.Nextafter(r, 0), r, math.Nextafter(r, math.Inf(1))} {
				for _, qnorm := range []float64{1, 0.3} {
					lambda := 0.25 * t1
					absIP := lambda + qnorm*t1
					want := len(xcos)
					for j := range xcos {
						if th := (absIP - lambda) / qnorm; th > 0 && vec.PointSqRadius(n.centerNorm, xcos[j], xsin[j]) < th*th {
							want = j
							break
						}
					}
					if got := vec.BallCutoff(absIP, qnorm, lambda, n.centerNorm, xcos, xsin); got != want {
						t.Fatalf("leaf %d: BallCutoff = %d, a scan cuts at %d (threshold at point %d)", ni, got, want, i)
					}
				}
			}
		}
	}
}

// TestDerivedRadiusSoundOnSurrogates runs checkDerivedRadii over BC trees on
// the sixteen Table II surrogates, where next to no point is collinear with
// its centre and pointRadiusRoom is its tight form: a derived radius lies
// within 1.5 * 2^-22 * (||x|| + ||c||) of the distance.
func TestDerivedRadiusSoundOnSurrogates(t *testing.T) {
	for _, spec := range dataset.Catalog() {
		n := 1500
		if spec.RawDim > 1000 {
			n = 400
		}
		tree := Build(dataset.Generate(spec, n, 1).AppendOnes(), BC, Config{LeafSize: 50, Seed: 1})
		checkDerivedRadii(t, tree)
	}
}

// TestDerivedRadiusSoundOnHandBuiltLeaves runs checkDerivedRadii over
// single-leaf trees built to sit where the derivation has the least to work
// with.
func TestDerivedRadiusSoundOnHandBuiltLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	leaf := func(name string, rows [][]float32) *Tree {
		t.Helper()
		tree := Build(vec.FromRows(rows), BC, Config{LeafSize: len(rows), Seed: 1})
		if tree.Nodes() != 1 {
			t.Fatalf("%s: %d nodes, want one leaf", name, tree.Nodes())
		}
		checkDerivedRadii(t, tree)
		return tree
	}

	dup := make([][]float32, 20)
	for i := range dup {
		dup[i] = []float32{3, -1, 2.5, 1}
	}
	if tree := leaf("duplicates", dup); tree.nodes[0].radius != 0 {
		t.Errorf("a leaf of duplicates has radius %v, want 0", tree.nodes[0].radius)
	}

	// Collinear with the centre: the rejection is nothing but its guard.
	collinear := make([][]float32, 40)
	for i := range collinear {
		s := float32(1 + rng.Float64())
		collinear[i] = []float32{3 * s, -4 * s, 12 * s}
	}
	leaf("collinear", collinear)

	// A cluster of radius about 1 around a centre 2^k away, along the centre
	// and across it: past 2^23 the float32 coordinates no longer resolve the
	// offsets and the points collapse onto a few values.
	for k := 0; k <= 30; k += 2 {
		off := math.Pow(2, float64(k))
		rows := make([][]float32, 48)
		for i := range rows {
			rows[i] = []float32{
				float32(off + rng.NormFloat64()), float32(off + rng.NormFloat64()),
				float32(rng.NormFloat64()), 1,
			}
		}
		leaf(fmt.Sprintf("offset 2^%d", k), rows)
	}

	// Denormal coordinates: a float32 step is absolute down there.
	denormal := make([][]float32, 24)
	for i := range denormal {
		denormal[i] = []float32{
			math.Float32frombits(uint32(rng.Intn(1 << 12))), math.Float32frombits(uint32(rng.Intn(1 << 20))),
			-math.Float32frombits(uint32(rng.Intn(1 << 16))),
		}
	}
	leaf("denormal", denormal)

	// Points in opposite pairs: the centre is the origin exactly, there is no
	// direction to project on and the whole of ||x|| is rejection.
	var pairs [][]float32
	for i := 0; i < 16; i++ {
		x := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		pairs = append(pairs, x, []float32{-x[0], -x[1], -x[2]})
	}
	if tree := leaf("origin-centred", pairs); tree.nodes[0].centerNorm != 0 {
		t.Errorf("opposite pairs have a centre of norm %v, want 0", tree.nodes[0].centerNorm)
	}
}
