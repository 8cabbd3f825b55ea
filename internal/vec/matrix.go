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

// CentroidBlock writes the mean of the packed row-major block rows, whose
// rows have dimension len(dst), into dst, accumulating row after row in acc
// (length len(dst)). A builder that forms a centroid per node passes the same
// acc each time. It panics if the block is empty. Each coordinate's sum is
// AddInto's row by row, bit for bit; where the assembly runs, four rows pass
// per load and store of acc and four coordinates per instruction.
func CentroidBlock(rows []float32, acc []float64, dst []float32) {
	d := len(dst)
	if len(rows) == 0 || len(acc) != d || len(rows)%d != 0 {
		panic("vec: CentroidBlock of an empty or misshapen block")
	}
	clear(acc)
	for at := addRowsArch(acc, rows); at < len(rows); at += d {
		AddInto(acc, rows[at:at+d])
	}
	inv := 1 / float64(len(rows)/d)
	for i, v := range acc {
		dst[i] = float32(v * inv)
	}
}

// MaxDistBlock returns the index and distance of the row of the packed
// row-major block rows (dimension len(from)) farthest from the vector from,
// the first such row on a tie. It panics if the block is empty. The distance
// is SqDist's, rooted; the rows are screened a chunk at a time by
// FarthestBlock, so only the rows that may be the farthest are computed in
// float64.
func MaxDistBlock(from, rows []float32) (pos int, dist float64) {
	d := len(from)
	if len(rows) == 0 || len(rows)%d != 0 {
		panic("vec: MaxDistBlock over an empty or misshapen block")
	}
	var buf [screenChunk]float32 // a chunk of screened distances, on the stack
	best, bestPos := -1.0, 0
	for lo, n := 0, len(rows)/d; lo < n; lo += len(buf) {
		s := buf[:min(len(buf), n-lo)]
		if i, v := FarthestBlock(from, rows[lo*d:(lo+len(s))*d], best, s); i >= 0 {
			best, bestPos = v, lo+i
		}
	}
	return bestPos, math.Sqrt(best)
}
