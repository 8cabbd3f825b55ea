package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.N != 3 || m.D != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	for _, c := range []struct{ n, d int }{{-1, 3}, {2, 0}, {2, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) should panic", c.n, c.d)
				}
			}()
			NewMatrix(c.n, c.d)
		}()
	}
}

func TestFromRowsAndRow(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if m.N != 3 || m.D != 2 {
		t.Fatalf("shape %dx%d", m.N, m.D)
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	// Row aliases storage.
	r[0] = 9
	if m.Data[2] != 9 {
		t.Fatal("Row must alias the matrix storage")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestFromRowsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty rows")
		}
	}()
	FromRows(nil)
}

func TestAppendOnes(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	a := m.AppendOnes()
	if a.D != 3 || a.N != 2 {
		t.Fatalf("AppendOnes shape %dx%d", a.N, a.D)
	}
	for i := 0; i < a.N; i++ {
		row := a.Row(i)
		if row[2] != 1 {
			t.Errorf("row %d missing trailing 1: %v", i, row)
		}
		if row[0] != m.Row(i)[0] || row[1] != m.Row(i)[1] {
			t.Errorf("row %d body changed: %v", i, row)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float32{{1, 2}})
	c := m.Clone()
	c.Data[0] = 42
	if m.Data[0] == 42 {
		t.Fatal("Clone must not share storage")
	}
}

func TestSubsetRows(t *testing.T) {
	m := FromRows([][]float32{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	s := m.SubsetRows([]int32{3, 1})
	if s.N != 2 || s.Row(0)[0] != 3 || s.Row(1)[0] != 1 {
		t.Fatalf("SubsetRows wrong: %+v", s)
	}
}

func TestCentroid(t *testing.T) {
	m := FromRows([][]float32{{0, 0}, {2, 4}, {4, 2}})
	c, acc := make([]float32, 2), make([]float64, 2)
	CentroidBlock(m.Data, acc, c)
	if c[0] != 2 || c[1] != 2 {
		t.Fatalf("CentroidBlock = %v, want [2 2]", c)
	}
	// a sub-block's centroid
	CentroidBlock(m.Row(1), acc, c)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("CentroidBlock = %v, want [2 4]", c)
	}
}

func TestCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CentroidBlock(nil, make([]float64, 2), make([]float32, 2))
}

func TestMaxDistFrom(t *testing.T) {
	m := FromRows([][]float32{{0, 0}, {3, 4}, {1, 1}})
	pos, dist := MaxDistBlock([]float32{0, 0}, m.Data)
	if pos != 1 || !almostEq(dist, 5, 1e-6) {
		t.Fatalf("MaxDistBlock = (%d, %v), want (1, 5)", pos, dist)
	}
}

func TestMaxDistFromEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxDistBlock([]float32{0, 0}, nil)
}

func TestBytes(t *testing.T) {
	m := NewMatrix(10, 8)
	if m.Bytes() != 320 {
		t.Fatalf("Bytes = %d, want 320", m.Bytes())
	}
}

// Property: centroid of all rows is inside the bounding box per coordinate.
func TestQuickCentroidInBox(t *testing.T) {
	f := func(seed int64, nn, dd uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := int(nn%20)+1, int(dd%16)+1
		m := NewMatrix(n, d)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		c := make([]float32, d)
		CentroidBlock(m.Data, make([]float64, d), c)
		for j := 0; j < d; j++ {
			lo, hi := float32(1e30), float32(-1e30)
			for i := 0; i < n; i++ {
				v := m.Row(i)[j]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if c[j] < lo-1e-4 || c[j] > hi+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
