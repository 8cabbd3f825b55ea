package vec

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major collection of n vectors of dimension d.
// Row i occupies Data[i*D : (i+1)*D]. A Matrix is the unit of exchange
// between dataset generation, index construction, and query evaluation.
type Matrix struct {
	Data []float32
	N    int // number of rows (vectors)
	D    int // dimension of each row
}

// NewMatrix allocates an n x d matrix of zeros.
func NewMatrix(n, d int) *Matrix {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %dx%d", n, d))
	}
	return &Matrix{Data: make([]float32, n*d), N: n, D: d}
}

// FromRows builds a Matrix by copying the given equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		panic("vec: FromRows needs at least one row")
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("vec: FromRows ragged row %d: %d != %d", i, len(r), d))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.D : (i+1)*m.D : (i+1)*m.D] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.N, m.D)
	copy(out.Data, m.Data)
	return out
}

// AppendOnes returns a new (n x d+1) matrix whose rows are the rows of m with
// a trailing 1 appended — the paper's lifting x = (p; 1) that aligns data and
// hyperplane-query dimensions (Section II).
func (m *Matrix) AppendOnes() *Matrix {
	out := NewMatrix(m.N, m.D+1)
	for i := 0; i < m.N; i++ {
		dst := out.Row(i)
		copy(dst, m.Row(i))
		dst[m.D] = 1
	}
	return out
}

// Bytes returns the in-memory size of the matrix payload in bytes.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 4 }

// SubsetRows returns a new matrix holding the rows of m selected by idx,
// in order.
func (m *Matrix) SubsetRows(idx []int32) *Matrix {
	out := NewMatrix(len(idx), m.D)
	for i, id := range idx {
		copy(out.Row(i), m.Row(int(id)))
	}
	return out
}

// Centroid computes the mean of the rows selected by idx into a fresh vector.
// It panics if idx is empty.
func (m *Matrix) Centroid(idx []int32) []float32 {
	dst := make([]float32, m.D)
	m.CentroidInto(idx, make([]float64, m.D), dst)
	return dst
}

// CentroidInto is Centroid into dst, accumulating in acc; both have length
// m.D. A builder that forms a centroid per node passes the same acc each
// time.
func (m *Matrix) CentroidInto(idx []int32, acc []float64, dst []float32) {
	if len(idx) == 0 {
		panic("vec: Centroid of empty selection")
	}
	if len(acc) != m.D || len(dst) != m.D {
		panic("vec: CentroidInto shape mismatch")
	}
	clear(acc)
	for _, id := range idx {
		AddInto(acc, m.Row(int(id)))
	}
	inv := 1 / float64(len(idx))
	for i, v := range acc {
		dst[i] = float32(v * inv)
	}
}

// SqDistsFrom writes out[i] = SqDist(m.Row(idx[i]), from) for the rows
// selected by idx, each bitwise equal to that call. len(out) must be
// len(idx) and len(from) must be m.D.
func (m *Matrix) SqDistsFrom(idx []int32, from []float32, out []float64) {
	if len(out) != len(idx) || len(from) != m.D {
		panic("vec: SqDistsFrom shape mismatch")
	}
	sqDistRowsArch(m, idx, from, out)
}

// sqDistRowsGo is SqDistsFrom's reference.
func sqDistRowsGo(m *Matrix, idx []int32, from []float32, out []float64) {
	for i, id := range idx {
		out[i] = SqDist(m.Row(int(id)), from)
	}
}

// MaxDistFrom returns the index (position within idx) and distance of the row
// farthest from the vector from, over the rows selected by idx.
// It panics if idx is empty.
func (m *Matrix) MaxDistFrom(idx []int32, from []float32) (pos int, dist float64) {
	if len(idx) == 0 {
		panic("vec: MaxDistFrom over empty selection")
	}
	var buf [128]float64 // a chunk of squared distances, on the stack
	best, bestPos := -1.0, 0
	for lo := 0; lo < len(idx); lo += len(buf) {
		sq := buf[:min(len(buf), len(idx)-lo)]
		m.SqDistsFrom(idx[lo:lo+len(sq)], from, sq)
		for i, d := range sq {
			if d > best {
				best, bestPos = d, lo+i
			}
		}
	}
	return bestPos, math.Sqrt(best)
}
