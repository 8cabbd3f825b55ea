package balltree

import (
	"math"
	"math/rand"
	"testing"

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

// TestBoundsSoundOnLowDimensionalData is TestExactOnLowDimensionalData one
// layer down: on that data, for its hyperplanes and for four more far from
// the data and through the origin (offsetQueries), every bound a search could
// evaluate — node-level with kappa, point-level ball and cone — lies below
// the |<q,x>| it bounds, point by point (boundViolations), and every product
// Lemma 2 derives lies within its kappa of the product with the centre its
// node was measured from (collabMisses) — while missing it by more than
// radiusSlack covers, which is why kappa exists.
func TestBoundsSoundOnLowDimensionalData(t *testing.T) {
	t.Parallel()
	n, nq := lowDimN, 10
	forKinds(t, func(t *testing.T, kind Kind) {
		for _, c := range lowDimCases {
			t.Run(c.name, func(t *testing.T) {
				data, queries := c.generate(n, nq)
				queries = withOffsetQueries(data, queries, 4, c.seed+1)
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
	t.Parallel()
	n := lowDimN
	for _, c := range lowDimCases {
		t.Run(c.name, func(t *testing.T) {
			data, _ := c.generate(n, 1)
			checkDerivedRadii(t, Build(data, BC, Config{LeafSize: c.leafSize, Seed: c.seed}))
		})
	}
}
