package dataset

import (
	"math"
	"reflect"
	"testing"

	"p2h/internal/vec"
)

func TestDedupRemovesDuplicates(t *testing.T) {
	m := vec.FromRows([][]float32{
		{1, 2}, {3, 4}, {1, 2}, {5, 6}, {3, 4}, {1, 2},
	})
	got := Dedup(m)
	if got.N != 3 {
		t.Fatalf("Dedup kept %d rows, want 3", got.N)
	}
	want := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	for i, w := range want {
		r := got.Row(i)
		if r[0] != w[0] || r[1] != w[1] {
			t.Fatalf("row %d = %v, want %v (order must be preserved)", i, r, w)
		}
	}
}

// TestDedupPlantedDuplicates plants copies far from their originals in a
// generated set, and runs the same set under a hash that sends every row to
// one chain: the survivors are the originals, in order, either way.
func TestDedupPlantedDuplicates(t *testing.T) {
	base := Generate(Spec{Name: "t", Family: FamilyClustered, RawDim: 7, Clusters: 3}, 600, 2)
	var rows [][]float32
	var want []int32 // rows of base that survive, in order
	for i := 0; i < base.N; i++ {
		rows = append(rows, base.Row(i))
		want = append(want, int32(i))
		if i >= 300 && i%7 == 0 {
			rows = append(rows, base.Row(i-300), base.Row(i)) // one from far back, one adjacent
		}
	}
	m := vec.FromRows(rows)
	for name, got := range map[string]*vec.Matrix{
		"hashed":     Dedup(m),
		"one chain":  dedup(m, func([]float32) uint64 { return 42 }),
		"two chains": dedup(m, func(row []float32) uint64 { return uint64(math.Float32bits(row[0]) & 1) }),
	} {
		if !reflect.DeepEqual(got, base.SubsetRows(want)) {
			t.Errorf("%s: kept %d rows, want the %d originals in order", name, got.N, base.N)
		}
	}
	if got := dedup(base, func([]float32) uint64 { return 0 }); got != base {
		t.Error("a set without duplicates should come back as it is, colliding hashes or not")
	}
}

func TestDedupNoDuplicatesReturnsSame(t *testing.T) {
	m := vec.FromRows([][]float32{{1, 0}, {0, 1}, {1, 1}})
	got := Dedup(m)
	if got != m {
		t.Fatal("Dedup with no duplicates should return the input matrix unchanged")
	}
}

func TestDedupDistinguishesNegativeZero(t *testing.T) {
	// +0 and -0 have distinct bit patterns; Dedup works on bits, so the two
	// rows are kept. This is intentional: it matches bytewise dedup of the
	// original corpora files.
	m := vec.FromRows([][]float32{{0}, {float32(negZero())}})
	got := Dedup(m)
	if got.N != 2 {
		t.Fatalf("Dedup merged +0 and -0; kept %d rows", got.N)
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestDedupLargeRandomNoCollisionLoss(t *testing.T) {
	m := Generate(Spec{Name: "t", Family: FamilyUniform, RawDim: 6}, 2000, 1)
	got := Dedup(m)
	if got.N != m.N {
		t.Fatalf("random floats should all be unique: %d != %d", got.N, m.N)
	}
}
