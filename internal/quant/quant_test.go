package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"p2h/internal/dataset"
	"p2h/internal/vec"
)

func setup(t *testing.T, family dataset.Family, n, d int, seed int64) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: family, RawDim: d, Clusters: 6}, n, seed)
	return raw.AppendOnes(), dataset.GenerateQueries(raw, 10, seed+1)
}

func TestNewQuantizerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQuantizer(vec.NewMatrix(0, 3))
}

// TestQuickEncodeDecodeWithinHalfStep: reconstruction error per dimension is
// at most the quantizer's per-dimension bound (half a step plus the float32
// rounding slack), for vectors inside the fitted range.
func TestQuickEncodeDecodeWithinHalfStep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 10
		d := rng.Intn(12) + 1
		m := vec.NewMatrix(n, d)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * 10)
		}
		q := NewQuantizer(m)
		for i := 0; i < n; i++ {
			row := m.Row(i)
			back := q.Decode(q.Encode(row))
			for j := range row {
				if math.Abs(float64(back[j]-row[j])) > q.halfE[j]+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInnerProductErrorBound: |<q,x> - approx| <= MaxError(q) for all
// indexed vectors.
func TestQuickInnerProductErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 10
		d := rng.Intn(10) + 1
		m := vec.NewMatrix(n, d)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * 5)
		}
		quantizer := NewQuantizer(m)
		query := make([]float32, d)
		for j := range query {
			query[j] = float32(rng.NormFloat64())
		}
		base, w := quantizer.QueryCoeffs(query)
		eps := quantizer.MaxError(query)
		for i := 0; i < n; i++ {
			exact := vec.Dot(query, m.Row(i))
			approx := approxIP(base, w, quantizer.Encode(m.Row(i)))
			if math.Abs(exact-approx) > eps+1e-6*(1+math.Abs(exact)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConstantDimensionHandled(t *testing.T) {
	rows := [][]float32{{1, 5, 2}, {1, 6, 3}, {1, 7, 4}} // dim 0 constant
	m := vec.FromRows(rows)
	q := NewQuantizer(m)
	for i := range rows {
		back := q.Decode(q.Encode(m.Row(i)))
		if back[0] != 1 {
			t.Fatalf("constant dim must reconstruct exactly, got %v", back[0])
		}
	}
}

func TestEncodeClampsOutOfRange(t *testing.T) {
	m := vec.FromRows([][]float32{{0}, {10}})
	q := NewQuantizer(m)
	lowCode := q.Encode([]float32{-100})
	highCode := q.Encode([]float32{100})
	if lowCode[0] != 0 || highCode[0] != 255 {
		t.Fatalf("clamping failed: %d %d", lowCode[0], highCode[0])
	}
}
