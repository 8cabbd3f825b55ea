//go:build !race

// Not built under the race detector: these tests are single-goroutine
// arithmetic over 100 000 points, which it slows from 20 seconds to five
// minutes and has nothing to find in.

package balltree

import (
	"math"
	"math/rand"
	"testing"

	"p2h/internal/core"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

// lowDimCase is a data set on which floating-point rounding, not geometry,
// decides whether a bound prunes: one or two raw dimensions, so that points
// are collinear or nearly collinear with their leaf's centre (the cone bound's
// rejection cancels to nothing), and coordinates far from the origin, so that
// ‖centre‖ dwarfs the radii (a float32-rounded centre is off by more than a
// deep ball is wide).
type lowDimCase struct {
	name     string
	rawDim   int
	leafSize int
	seed     int64
	coord    func(rng *rand.Rand) float64
}

var lowDimCases = []lowDimCase{
	{"d1-leaf16-offset5", 1, 16, 1, func(rng *rand.Rand) float64 { return 5 + rng.NormFloat64() }},
	{"d1-leaf2-heavytail", 1, 2, 2, func(rng *rand.Rand) float64 { return math.Exp(2 * rng.NormFloat64()) }},
	{"d2-leaf100-offset1000", 2, 100, 3, func(rng *rand.Rand) float64 { return 1000 + rng.NormFloat64() }},
}

// generate returns n lifted points and nq lifted queries: unit-normal
// hyperplanes through randomly chosen data points, the hardest queries for a
// lower bound since the true minimum is (nearly) zero.
func (c lowDimCase) generate(n, nq int) (data, queries *vec.Matrix) {
	rng := rand.New(rand.NewSource(c.seed))
	d := c.rawDim + 1
	data = vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := 0; j < c.rawDim; j++ {
			row[j] = float32(c.coord(rng))
		}
		row[c.rawDim] = 1
	}
	queries = vec.NewMatrix(nq, d)
	for i := 0; i < nq; i++ {
		q := queries.Row(i)
		for j := 0; j < c.rawDim; j++ {
			q[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(q[:c.rawDim])
		p := data.Row(rng.Intn(n))
		q[c.rawDim] = float32(-vec.Dot(q[:c.rawDim], p[:c.rawDim]))
	}
	return data, queries
}

// TestExactOnLowDimensionalData: exact search — sequential and batched — is
// the linear scan's answer, bit for bit, where the bounds have no room for an
// unaccounted rounding. The scan answers each case once, for both kinds.
func TestExactOnLowDimensionalData(t *testing.T) {
	n, nq := 100000, 3000
	if testing.Short() {
		n, nq = 20000, 500
	}
	opts := core.SearchOptions{K: 10}
	type oracle struct {
		data, queries *vec.Matrix
		want          [][]core.Result
	}
	oracles := make([]oracle, len(lowDimCases))
	for i, c := range lowDimCases {
		data, queries := c.generate(n, nq)
		want, _ := linearscan.New(data).SearchBatch(queries, opts)
		oracles[i] = oracle{data, queries, want}
	}
	forKinds(t, func(t *testing.T, kind Kind) {
		for i, c := range lowDimCases {
			t.Run(c.name, func(t *testing.T) {
				data, queries, want := oracles[i].data, oracles[i].queries, oracles[i].want
				tree := Build(data, kind, Config{LeafSize: c.leafSize, Seed: c.seed})
				batch, _ := tree.SearchBatch(queries, opts)
				var wrongSeq, wrongBatch int
				for qi := 0; qi < queries.N; qi++ {
					got, _ := tree.Search(queries.Row(qi), opts)
					if !equalResults(got, want[qi]) {
						wrongSeq++
					}
					if !equalResults(batch[qi], want[qi]) {
						wrongBatch++
					}
				}
				if wrongSeq > 0 || wrongBatch > 0 {
					t.Errorf("of %d exact answers, %d sequential and %d batched differ from the linear scan",
						queries.N, wrongSeq, wrongBatch)
				}
			})
		}
	})
}

// TestBoundsSoundOnLowDimensionalData is the same statement one layer down:
// on that data every bound a search could evaluate — node-level with kappa,
// point-level ball and cone — lies below the |<q,x>| it bounds, point by
// point (boundViolations), and every product Lemma 2 derives lies within its
// kappa of the product with the centre its node was measured from
// (collabMisses) — while missing it by more than radiusSlack covers, which is
// why kappa exists.
func TestBoundsSoundOnLowDimensionalData(t *testing.T) {
	n, nq := 100000, 40
	if testing.Short() {
		n = 20000
	}
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, c := range lowDimCases {
			t.Run(c.name, func(t *testing.T) {
				data, queries := c.generate(n, nq)
				tree := Build(data, kind, Config{LeafSize: c.leafSize, Seed: c.seed})
				requireBoundsSound(t, c.name, tree, queries)
				if kind != BC {
					return
				}
				centers, norm := nodeCenters(tree), maxNorm(tree)
				var beyondKappa, beyondCentroid, beyondSlack int
				for qi := 0; qi < queries.N; qi++ {
					k, c, s := collabMisses(tree, centers, norm, queries.Row(qi))
					beyondKappa, beyondCentroid, beyondSlack = beyondKappa+k, beyondCentroid+c, beyondSlack+s
				}
				if beyondKappa+beyondCentroid > 0 {
					t.Errorf("%d derived products beyond kappa of their centre's, %d beyond kappa and rounding of the centroid's",
						beyondKappa, beyondCentroid)
				}
				if beyondSlack == 0 {
					t.Error("no derived product misses by more than radiusSlack covers: the data does not reach what kappa is for")
				}
			})
		}
	})
}

// TestDerivedRadiusSoundOnLowDimensionalData: checkDerivedRadii where points
// are collinear with their centres and ||c|| is a thousand radii.
func TestDerivedRadiusSoundOnLowDimensionalData(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 20000
	}
	for _, c := range lowDimCases {
		t.Run(c.name, func(t *testing.T) {
			data, _ := c.generate(n, 1)
			checkDerivedRadii(t, Build(data, BC, Config{LeafSize: c.leafSize, Seed: c.seed}))
		})
	}
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

func equalResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
