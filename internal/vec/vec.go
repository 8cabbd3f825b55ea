package vec

import "math"

// Dot returns the inner product of a and b accumulated in float64.
// It panics if the slices have different lengths.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: Dot length mismatch")
	}
	return dotArch(a, b)
}

// dotGo is Dot's reference: four accumulation chains over groups of four
// elements, the tail folded into the first chain, summed left to right. The
// assembly kernel reproduces exactly this order (see doc.go).
func dotGo(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// SqNorm returns the squared l2 norm of a.
func SqNorm(a []float32) float64 {
	var s0, s1 float64
	i := 0
	for ; i+2 <= len(a); i += 2 {
		x, y := float64(a[i]), float64(a[i+1])
		s0 += x * x
		s1 += y * y
	}
	if i < len(a) {
		x := float64(a[i])
		s0 += x * x
	}
	return s0 + s1
}

// Norm returns the l2 norm of a.
func Norm(a []float32) float64 { return math.Sqrt(SqNorm(a)) }

// SqDist returns the squared Euclidean distance between a and b: the float64
// value every distance the float32 screen cannot settle is recomputed to
// (FarthestBlock, SqDistLE). It panics if the slices have different lengths.
func SqDist(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vec: SqDist length mismatch")
	}
	var s0, s1 float64
	i := 0
	for ; i+2 <= len(a); i += 2 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		// The conversions pin the rounding of each square: without them the
		// compiler may fuse the multiply into the add (see doc.go).
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
	}
	if i < len(a) {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	return s0 + s1
}

// AbsDot returns |<a, b>|, the point-to-hyperplane distance of the paper's
// Equation 2 once data points carry a trailing 1 and queries are normalized.
func AbsDot(a, b []float32) float64 { return math.Abs(Dot(a, b)) }

// Scale multiplies a in place by s.
func Scale(a []float32, s float64) {
	for i := range a {
		a[i] = float32(float64(a[i]) * s)
	}
}

// Normalize scales a in place to unit l2 norm and returns its original norm.
// A zero vector is left untouched and 0 is returned.
func Normalize(a []float32) float64 {
	n := Norm(a)
	if n == 0 {
		return 0
	}
	Scale(a, 1/n)
	return n
}

// AddInto accumulates src into the float64 accumulator dst.
// It panics if the slices have different lengths.
func AddInto(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("vec: AddInto length mismatch")
	}
	for i, v := range src {
		dst[i] += float64(v)
	}
}

// Round32 converts a float64 accumulator into a freshly allocated []float32.
func Round32(a []float64) []float32 {
	out := make([]float32, len(a))
	for i, v := range a {
		out[i] = float32(v)
	}
	return out
}
