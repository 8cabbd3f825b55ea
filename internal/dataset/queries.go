package dataset

import (
	"math"
	"math/rand"

	"p2h/internal/vec"
)

// GenerateQueries builds nq hyperplane queries for the raw data matrix
// (dimension d), modeling the protocol of Huang et al. [30] that the paper
// adopts ("we follow [30] and randomly generate 100 hyperplane queries"):
// the normal vector w is drawn from N(0, I_d) and normalized to unit length
// (the paper's assumption sqrt(sum q_i^2) = 1), and the offset places the
// hyperplane through the data centroid jittered by a fraction of the
// projection spread. Hyperplanes through the data bulk are exactly what the
// motivating applications produce (SVM decision boundaries in active
// learning, maximum-margin clustering splits), and they keep the offset
// coordinate — and hence ||q||, which multiplies every radius in the
// paper's bounds (the trees charge only the normal's norm) — of the same
// order as the normal vector.
//
// The returned matrix has dimension d+1: row = (w_1..w_d, b). Its inner
// product with a lifted data point x = (p; 1) is the signed point-to-
// hyperplane distance.
func GenerateQueries(data *vec.Matrix, nq int, seed int64) *vec.Matrix {
	if nq <= 0 {
		panic("dataset: GenerateQueries needs nq > 0")
	}
	if data.N == 0 {
		panic("dataset: GenerateQueries needs non-empty data")
	}
	rng := rand.New(rand.NewSource(seed))
	d := data.D
	centroid := dataCentroid(data)
	q := vec.NewMatrix(nq, d+1)
	w := make([]float32, d)
	for i := 0; i < nq; i++ {
		for j := range w {
			w[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(w)
		// Estimate the spread of projections onto w from a small sample so
		// the jitter scale adapts to the data set.
		spread := projectionSpread(data, w, rng)
		b := -vec.Dot(w, centroid) + rng.NormFloat64()*spread*0.2
		row := q.Row(i)
		copy(row, w)
		row[d] = float32(b)
	}
	return q
}

func dataCentroid(data *vec.Matrix) []float32 {
	acc := make([]float64, data.D)
	for i := 0; i < data.N; i++ {
		vec.AddInto(acc, data.Row(i))
	}
	inv := 1 / float64(data.N)
	for i := range acc {
		acc[i] *= inv
	}
	return vec.Round32(acc)
}

// projectionSpread estimates the standard deviation of <w, p> over a sample
// of at most 64 data points.
func projectionSpread(data *vec.Matrix, w []float32, rng *rand.Rand) float64 {
	sample := 64
	if sample > data.N {
		sample = data.N
	}
	var sum, sumSq float64
	for s := 0; s < sample; s++ {
		v := vec.Dot(w, data.Row(rng.Intn(data.N)))
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(sample)
	varr := sumSq/float64(sample) - mean*mean
	if varr < 1e-12 {
		return 1
	}
	return math.Sqrt(varr)
}
