package balltree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"p2h/internal/core"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

// FuzzTreeSearch holds both kinds' searches to the linear scan. The inputs
// decode into a data set of up to 512 points in up to 16 dimensions, a leaf
// size, a geometry, a family of hyperplanes, and a seed for everything drawn
// at random (fuzzSet). A search that must be exact — no budget, or a budget
// of n — returns the scan's answer bit for bit (ids, distances, the order of
// ties) on BC and Ball trees, with and without the cone bound, as single
// calls and as one batch of at least vec.TileQueries queries. A search under
// a smaller budget returns valid results (see checkBudgeted), and a batch
// under it each row's single-call answer and Stats. The seed
// corpus, testdata/fuzz/FuzzTreeSearch, names a case for each geometry.
func FuzzTreeSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, dim, leaf, geom, plane uint8, seed int64) {
		data, queries, k := fuzzSet(int(n)%512+1, int(dim)%16+1, geom, plane, seed)
		scan := linearscan.New(data)
		want := make([][]core.Result, queries.N)
		for i := range want {
			want[i], _ = scan.Search(queries.Row(i), core.SearchOptions{K: k})
		}
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range []Kind{BC, Ball} {
			tree := Build(data, kind, Config{LeafSize: int(leaf)%64 + 1, Seed: seed})
			for _, budget := range []int{0, data.N} {
				for _, cone := range []bool{false, true} {
					opts := core.SearchOptions{K: k, Budget: budget, PointCone: cone}
					batch, _ := tree.SearchBatch(queries, opts)
					for i := range want {
						got, _ := tree.Search(queries.Row(i), opts)
						if !slices.Equal(got, want[i]) || !slices.Equal(batch[i], want[i]) {
							t.Fatalf("%s %+v, query %d:\n single %v\n batch  %v\n scan   %v", kind, opts, i, got, batch[i], want[i])
						}
					}
				}
			}
			if data.N > 1 {
				opts := core.SearchOptions{K: k, Budget: 1 + rng.Intn(data.N-1)}
				batch, bst := tree.SearchBatch(queries, opts)
				for i := range batch {
					res, st := tree.Search(queries.Row(i), opts)
					checkBudgeted(t, kind, data, queries.Row(i), opts, res, st)
					if !slices.Equal(batch[i], res) || bst[i] != st {
						t.Fatalf("%s budget %d, query %d: batch %v %+v, single %v %+v", kind, opts.Budget, i, batch[i], bst[i], res, st)
					}
				}
			}
		}
	})
}

// checkBudgeted asserts that a budgeted answer is a valid one: at most k
// results, each id a row of data with Dist exactly |vec.Dot(q, x)|, in
// ascending (Dist, ID) order without a repeated id, after at most Budget
// candidates.
func checkBudgeted(t *testing.T, kind Kind, data *vec.Matrix, q []float32, opts core.SearchOptions, res []core.Result, st core.Stats) {
	t.Helper()
	if st.Candidates > int64(opts.Budget) || len(res) > opts.K {
		t.Fatalf("%s budget %d: %d candidates, %d results for k = %d", kind, opts.Budget, st.Candidates, len(res), opts.K)
	}
	for j, r := range res {
		if r.ID < 0 || int(r.ID) >= data.N {
			t.Fatalf("%s budget %d: id %d out of range", kind, opts.Budget, r.ID)
		}
		if d := math.Abs(vec.Dot(q, data.Row(int(r.ID)))); r.Dist != d {
			t.Fatalf("%s budget %d: id %d at %v, its distance is %v", kind, opts.Budget, r.ID, r.Dist, d)
		}
		if j > 0 {
			if p := res[j-1]; p.Dist > r.Dist || (p.Dist == r.Dist && p.ID >= r.ID) {
				t.Fatalf("%s budget %d: %v after %v", kind, opts.Budget, r, p)
			}
		}
	}
}

// fuzzSet decodes a data set of n lifted points in d dimensions, the queries
// and k. geom%4 picks the geometry — Gaussian clusters of spreads from 1 down
// to 0.01, rows drawn from at most eight distinct points, points on one line,
// or a plain Gaussian cloud — and geom/4 an offset moving every point 0, 1,
// 10, … or 10⁴ along one direction. Each of the 4 to 8 queries has a unit
// normal, and plane>>(2i)&3 picks query i's offset: through the origin,
// through a data point (at least one distance is zero, and duplicates tie),
// far from the data (10 to 10⁵ beyond a data point), or near it.
func fuzzSet(n, d int, geom, plane uint8, seed int64) (data, queries *vec.Matrix, k int) {
	rng := rand.New(rand.NewSource(seed))
	gauss := func(scale float64) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	offset, norm := gauss(1), 0.0
	for _, v := range offset {
		norm += v * v
	}
	for i := range offset {
		offset[i] *= [...]float64{0, 1, 10, 100, 1e3, 1e4}[int(geom/4)%6] / math.Sqrt(norm)
	}
	var pick func() []float64
	switch geom % 4 {
	case 0:
		centres := make([][]float64, 1+rng.Intn(8))
		for i := range centres {
			centres[i] = gauss(10)
		}
		spread := math.Pow(10, -2*rng.Float64())
		pick = func() []float64 {
			p := gauss(spread)
			for i, c := range centres[rng.Intn(len(centres))] {
				p[i] += c
			}
			return p
		}
	case 1:
		distinct := make([][]float64, 1+rng.Intn(8))
		for i := range distinct {
			distinct[i] = gauss(1)
		}
		pick = func() []float64 { return slices.Clone(distinct[rng.Intn(len(distinct))]) }
	case 2:
		a, u := gauss(1), gauss(1)
		pick = func() []float64 {
			p, s := slices.Clone(a), 10*rng.NormFloat64()
			for i := range p {
				p[i] += s * u[i]
			}
			return p
		}
	default:
		pick = func() []float64 { return gauss(1) }
	}
	rows := make([][]float32, n)
	for r := range rows {
		p := pick()
		rows[r] = make([]float32, d)
		for i := range p {
			rows[r][i] = float32(p[i] + offset[i])
		}
	}
	data = vec.FromRows(rows).AppendOnes()

	qs := make([][]float32, 4+rng.Intn(5))
	for qi := range qs {
		q := make([]float32, d+1)
		for i, v := range gauss(1) {
			q[i] = float32(v)
		}
		vec.Normalize(q[:d])
		through := -vec.Dot(q, data.Row(rng.Intn(n))) // b putting a data point on the plane
		switch plane >> (2 * (qi % 4)) & 3 {
		case 0:
		case 1:
			q[d] = float32(through)
		case 2:
			far := math.Pow(10, 1+4*rng.Float64())
			if rng.Intn(2) == 0 {
				far = -far
			}
			q[d] = float32(through + far)
		default:
			q[d] = float32(through + rng.NormFloat64())
		}
		qs[qi] = q
	}
	return data, vec.FromRows(qs), 1 + rng.Intn(12)
}
