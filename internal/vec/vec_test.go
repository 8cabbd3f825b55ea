package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d <= tol*scale
}

func TestDotBasic(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float64
	}{
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{0, 0}, []float32{1, 1}, 0},
		{[]float32{-1, 2, -3, 4, -5}, []float32{5, 4, 3, 2, 1}, -3},
		{[]float32{1}, []float32{-1}, -1},
		{nil, nil, 0},
	}
	for i, c := range cases {
		if got := Dot(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("case %d: Dot=%v want %v", i, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestSqDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SqDist([]float32{1, 2, 3}, []float32{1, 2})
}

func TestNormAndSqNorm(t *testing.T) {
	a := []float32{3, 4}
	if got := Norm(a); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := SqNorm(a); !almostEq(got, 25, 1e-12) {
		t.Errorf("SqNorm = %v, want 25", got)
	}
	if got := Norm(nil); got != 0 {
		t.Errorf("Norm(nil) = %v, want 0", got)
	}
}

func TestDistMatchesHandComputation(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := SqDist(a, b); !almostEq(got, 25, 1e-12) {
		t.Errorf("SqDist = %v, want 25", got)
	}
}

func TestAbsDot(t *testing.T) {
	a := []float32{1, -2}
	b := []float32{3, 4}
	if got := AbsDot(a, b); !almostEq(got, 5, 1e-12) {
		t.Errorf("AbsDot = %v, want 5", got)
	}
}

func TestScaleAndNormalize(t *testing.T) {
	a := []float32{2, 0, 0}
	Scale(a, 0.5)
	if a[0] != 1 {
		t.Errorf("Scale failed: %v", a)
	}
	b := []float32{0, 3, 4}
	n := Normalize(b)
	if !almostEq(n, 5, 1e-6) {
		t.Errorf("Normalize returned %v, want 5", n)
	}
	if !almostEq(Norm(b), 1, 1e-6) {
		t.Errorf("Normalize left norm %v", Norm(b))
	}
	z := []float32{0, 0}
	if Normalize(z) != 0 {
		t.Error("Normalize of zero vector should return 0")
	}
}

// Property: Dot is symmetric and bilinear under scaling.
func TestQuickDotSymmetric(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := int(n%64) + 1
		a, b := make([]float32, d), make([]float32, d)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |<a,b>| <= ||a||*||b||, with float tolerance.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := int(n%128) + 1
		a, b := make([]float32, d), make([]float32, d)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		return AbsDot(a, b) <= Norm(a)*Norm(b)*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SqDist(a,b) == SqNorm(a) + SqNorm(b) - 2*Dot(a,b).
func TestQuickSqDistExpansion(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := int(n%64) + 1
		a, b := make([]float32, d), make([]float32, d)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		lhs := SqDist(a, b)
		rhs := SqNorm(a) + SqNorm(b) - 2*Dot(a, b)
		return almostEq(lhs, rhs, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddIntoRound32(t *testing.T) {
	acc := make([]float64, 3)
	AddInto(acc, []float32{1, 2, 3})
	AddInto(acc, []float32{1, 2, 3})
	got := Round32(acc)
	want := []float32{2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Round32 = %v, want %v", got, want)
		}
	}
}

func TestAddIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddInto(make([]float64, 2), []float32{1, 2, 3})
}
