package quant

import (
	"fmt"
	"math"

	"p2h/internal/vec"
)

// levels is the number of quantization levels per dimension (8-bit codes).
const levels = 255

// float32Slack bounds the float32 rounding of the stored values and of the
// decode arithmetic, relative to the dimension's magnitude: a few ulps. It
// matters when a dimension's span is so small that the quantization step
// falls below the ulp of the values themselves.
const float32Slack = 4.0 / (1 << 23)

// Quantizer maps float32 vectors to uint8 codes, one affine grid per
// dimension.
type Quantizer struct {
	lo    []float32 // per-dimension minimum
	step  []float32 // per-dimension step ((hi-lo)/levels); 0 for constant dims
	halfE []float64 // per-dimension max absolute reconstruction error
}

// NewQuantizer fits per-dimension grids to the rows of data.
func NewQuantizer(data *vec.Matrix) *Quantizer {
	if data == nil || data.N == 0 {
		panic("quant: empty data")
	}
	d := data.D
	q := &Quantizer{
		lo:    make([]float32, d),
		step:  make([]float32, d),
		halfE: make([]float64, d),
	}
	hi := make([]float32, d)
	copy(q.lo, data.Row(0))
	copy(hi, data.Row(0))
	for i := 1; i < data.N; i++ {
		row := data.Row(i)
		for j, v := range row {
			if v < q.lo[j] {
				q.lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	for j := 0; j < d; j++ {
		span := hi[j] - q.lo[j]
		mag := math.Max(math.Abs(float64(q.lo[j])), math.Abs(float64(hi[j])))
		if span > 0 {
			q.step[j] = span / levels
			q.halfE[j] = float64(q.step[j])/2 + float32Slack*mag
		}
	}
	return q
}

// Dim returns the vector dimensionality.
func (q *Quantizer) Dim() int { return len(q.lo) }

// Encode quantizes x into an 8-bit code vector.
func (q *Quantizer) Encode(x []float32) []uint8 {
	if len(x) != q.Dim() {
		panic(fmt.Sprintf("quant: vector dimension %d != %d", len(x), q.Dim()))
	}
	out := make([]uint8, len(x))
	q.EncodeTo(out, x)
	return out
}

// Decode reconstructs the grid point of a code vector. The grid arithmetic
// runs in float64 so the only rounding is the final float32 conversion,
// which halfE covers.
func (q *Quantizer) Decode(code []uint8) []float32 {
	out := make([]float32, len(code))
	for j, c := range code {
		out[j] = float32(float64(q.lo[j]) + float64(c)*float64(q.step[j]))
	}
	return out
}

// MaxError returns, for a given query, the maximum possible difference
// between the exact inner product <query, x> and the approximate inner
// product computed on x's code: sum_j |query_j| * halfE_j.
func (q *Quantizer) MaxError(query []float32) float64 {
	if len(query) != q.Dim() {
		panic(fmt.Sprintf("quant: query dimension %d != %d", len(query), q.Dim()))
	}
	var e float64
	for j, v := range query {
		e += math.Abs(float64(v)) * q.halfE[j]
	}
	return e
}

// QueryCoeffs precomputes the affine form of the approximate inner product:
// <query, decode(code)> = base + sum_j w_j * code_j.
func (q *Quantizer) QueryCoeffs(query []float32) (base float64, w []float64) {
	if len(query) != q.Dim() {
		panic(fmt.Sprintf("quant: query dimension %d != %d", len(query), q.Dim()))
	}
	w = make([]float64, len(query))
	for j, v := range query {
		base += float64(v) * float64(q.lo[j])
		w[j] = float64(v) * float64(q.step[j])
	}
	return base, w
}

// approxIP evaluates the precomputed affine form on one code vector.
func approxIP(base float64, w []float64, code []uint8) float64 {
	s := base
	for j, c := range code {
		s += w[j] * float64(c)
	}
	return s
}
