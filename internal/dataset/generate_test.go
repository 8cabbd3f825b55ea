package dataset

import (
	"math"
	"testing"

	"p2h/internal/vec"
)

func TestGenerateShapes(t *testing.T) {
	for _, fam := range []Family{FamilyClustered, FamilyLowRank, FamilyHeavyTail, FamilySparse, FamilyUniform} {
		spec := Spec{Name: "t", Family: fam, RawDim: 24, ScaledN: 100, Clusters: 4}
		m := Generate(spec, 0, 1)
		if m.N != 100 || m.D != 24 {
			t.Errorf("%v: shape %dx%d, want 100x24", fam, m.N, m.D)
		}
		m = Generate(spec, 37, 1)
		if m.N != 37 {
			t.Errorf("%v: explicit n ignored, got %d", fam, m.N)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := ByName("Sift")
	a := Generate(spec, 50, 7)
	b := Generate(spec, 50, 7)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	c := Generate(spec, 50, 8)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must generate different data")
	}
}

func TestGeneratePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	Generate(Spec{Name: "bad", Family: FamilyUniform, RawDim: 0}, 10, 1)
}

func TestGeneratePanicsOnUnknownFamily(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown family")
		}
	}()
	Generate(Spec{Name: "bad", Family: Family(99), RawDim: 4}, 10, 1)
}

// Clustered data must have much lower within-cluster spread than global
// spread; we check that nearest-point distances are far below the global
// average distance, which is what makes ball bounds effective.
func TestClusteredHasStructure(t *testing.T) {
	spec := Spec{Name: "c", Family: FamilyClustered, RawDim: 16, Clusters: 8}
	m := Generate(spec, 400, 3)
	nnAvg := avgNearestDist(m, 50)
	globAvg := avgPairDist(m, 200)
	if nnAvg >= globAvg*0.6 {
		t.Fatalf("clustered data lacks structure: nn=%.3f glob=%.3f", nnAvg, globAvg)
	}
}

// Uniform iid data must NOT have that structure at the same ratio.
func TestUniformLacksStructure(t *testing.T) {
	spec := Spec{Name: "u", Family: FamilyUniform, RawDim: 16}
	m := Generate(spec, 400, 3)
	nnAvg := avgNearestDist(m, 50)
	globAvg := avgPairDist(m, 200)
	if nnAvg < globAvg*0.4 {
		t.Fatalf("uniform data unexpectedly clustered: nn=%.3f glob=%.3f", nnAvg, globAvg)
	}
}

func TestHeavyTailNormSpread(t *testing.T) {
	spec := Spec{Name: "h", Family: FamilyHeavyTail, RawDim: 32}
	m := Generate(spec, 500, 5)
	minN, maxN := math.Inf(1), 0.0
	for i := 0; i < m.N; i++ {
		n := vec.Norm(m.Row(i))
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if maxN/minN < 3 {
		t.Fatalf("heavy-tail norms too uniform: min=%.3f max=%.3f", minN, maxN)
	}
}

func TestSparseIsMostlySmall(t *testing.T) {
	spec := Spec{Name: "s", Family: FamilySparse, RawDim: 64}
	m := Generate(spec, 100, 9)
	small := 0
	for _, v := range m.Data {
		if v >= 0 && v < 0.2 {
			small++
		}
		if v < 0 {
			t.Fatal("sparse family must be non-negative")
		}
	}
	frac := float64(small) / float64(len(m.Data))
	if frac < 0.7 {
		t.Fatalf("sparse family not sparse: small fraction %.2f", frac)
	}
}

func avgNearestDist(m *vec.Matrix, sample int) float64 {
	if sample > m.N {
		sample = m.N
	}
	var sum float64
	for i := 0; i < sample; i++ {
		best := math.Inf(1)
		for j := 0; j < m.N; j++ {
			if i == j {
				continue
			}
			d := math.Sqrt(vec.SqDist(m.Row(i), m.Row(j)))
			if d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(sample)
}

func avgPairDist(m *vec.Matrix, pairs int) float64 {
	var sum float64
	count := 0
	for i := 0; count < pairs; i++ {
		a := (i * 7919) % m.N
		b := (i*104729 + 1) % m.N
		if a == b {
			continue
		}
		sum += math.Sqrt(vec.SqDist(m.Row(a), m.Row(b)))
		count++
	}
	return sum / float64(pairs)
}
