package vec

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randBlock(rng *rand.Rand, n, d int) ([]float32, []float32) {
	q := make([]float32, d)
	rows := make([]float32, n*d)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	return q, rows
}

func TestBlockKernelsPanicOnShapeMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"dot":    func() { DotBlock(make([]float32, 3), make([]float32, 7), make([]float64, 2)) },
		"sqdist": func() { SqDistBlock(make([]float32, 3), make([]float32, 7), make([]float64, 2)) },
		"cone":   func() { ConeSelect(0, 0, 1, make([]float32, 2), make([]float32, 3), nil) },
		"ball":   func() { BallCutoff(1, 1, 0, 1, make([]float32, 2), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// randLeaf draws a leaf's cone pairs around a centre of norm centerNorm and
// orders them as the builder does, by descending PointSqRadius.
func randLeaf(rng *rand.Rand, n int, centerNorm float64) (xcos, xsin []float32) {
	type pair struct{ c, s float32 }
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{float32(centerNorm + 3*rng.NormFloat64()), float32(3 * math.Abs(rng.NormFloat64()))}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		return PointSqRadius(centerNorm, pairs[a].c, pairs[a].s) > PointSqRadius(centerNorm, pairs[b].c, pairs[b].s)
	})
	xcos, xsin = make([]float32, n), make([]float32, n)
	for i, p := range pairs {
		xcos[i], xsin[i] = p.c, p.s
	}
	return xcos, xsin
}

// ballCutoffScan is the linear scan the binary search must agree with, over
// the same derived values and the same comparison of squares. Pruning is
// strict: only a bound strictly above lambda cuts.
func ballCutoffScan(absIP, qnorm, lambda, centerNorm float64, xcos, xsin []float32) int {
	for i := range xcos {
		var pruned bool
		if qnorm <= 0 {
			pruned = absIP > lambda
		} else if t := (absIP - lambda) / qnorm; t > 0 {
			pruned = PointSqRadius(centerNorm, xcos[i], xsin[i]) < t*t
		}
		if pruned {
			return i
		}
	}
	return len(xcos)
}

// The cut BallCutoff finds is the one a scan finds, and it is Corollary 1's:
// every point before it has absIP - qnorm*PointRadius <= lambda and every
// point from it on has that bound above lambda, up to the last bit of the
// comparison.
func TestBallCutoffMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		centerNorm := []float64{0, 1, 40}[trial%3]
		xcos, xsin := randLeaf(rng, rng.Intn(70), centerNorm)
		absIP := rng.Float64() * 8
		qnorm := rng.Float64() * 2
		lambda := rng.Float64() * 6
		if trial%7 == 0 {
			lambda = math.Inf(1) // a collector that is not full yet
		}
		got := BallCutoff(absIP, qnorm, lambda, centerNorm, xcos, xsin)
		if want := ballCutoffScan(absIP, qnorm, lambda, centerNorm, xcos, xsin); got != want {
			t.Fatalf("trial %d: cutoff %d != %d (absIP=%v qnorm=%v lambda=%v)", trial, got, want, absIP, qnorm, lambda)
		}
		for i := range xcos {
			lb := absIP - qnorm*PointRadius(centerNorm, xcos[i], xsin[i])
			if tol := 1e-12 * (absIP + lambda); (i < got && lb > lambda+tol) || (i >= got && lb < lambda-tol) {
				t.Fatalf("trial %d: point %d has ball bound %v against lambda %v, cutoff %d", trial, i, lb, lambda, got)
			}
		}
	}
}

func TestBallCutoffZeroQnorm(t *testing.T) {
	xcos, xsin := []float32{4, 3, 2}, []float32{3, 2, 1}
	if got := BallCutoff(5, 0, 4, 1, xcos, xsin); got != 0 {
		t.Fatalf("constant bound above lambda must cut everything, got %d", got)
	}
	if got := BallCutoff(5, 0, 6, 1, xcos, xsin); got != len(xcos) {
		t.Fatalf("constant bound below lambda must keep everything, got %d", got)
	}
}

// PointRadius is the hypotenuse over the stored legs, widened along the
// centre by at least one float32 step of xcos and by less than two.
func TestPointRadiusIsTheWidenedHypotenuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		centerNorm := math.Abs(rng.NormFloat64()) * math.Pow(2, float64(rng.Intn(40)-10))
		xcos := float32(centerNorm * (1 + rng.NormFloat64()*math.Pow(2, -float64(rng.Intn(30)))))
		xsin := float32(math.Abs(rng.NormFloat64()) * centerNorm * math.Pow(2, -float64(rng.Intn(30))))
		if trial%5 == 0 {
			centerNorm = 0
		}
		got := PointRadius(centerNorm, xcos, xsin)
		ac := math.Abs(float64(xcos))
		step := float64(math.Nextafter32(float32(ac), float32(math.Inf(1)))) - ac
		lo := math.Hypot(float64(xsin), math.Abs(float64(xcos)-centerNorm)+step)
		hi := lo + (0x1p-23+0x1p-28)*(ac+float64(xsin)+centerNorm)
		if got < lo*(1-0x1p-50) || got > hi {
			t.Fatalf("trial %d: PointRadius(%v, %v, %v) = %v outside [%v, %v]", trial, centerNorm, xcos, xsin, got, lo, hi)
		}
	}
	// A denormal xcos moves by an absolute step, not a relative one.
	den := math.Float32frombits(3)
	if got := PointRadius(0, den, 0); got < 4*0x1p-149 {
		t.Fatalf("denormal xcos: radius %v does not cover the next float32", got)
	}
}

// threeCaseCone is the cone bound as Theorem 3 states it, case by case; it
// leaves the combination qcos < 0, xcos < 0 at zero.
func threeCaseCone(qcos, qsin, xcos, xsin float64) float64 {
	sumA := qcos*xcos - qsin*xsin
	sumB := qcos*xcos + qsin*xsin
	if sumA > 0 && qcos > 0 && xcos > 0 {
		return sumA
	} else if sumB < 0 {
		return -sumB
	}
	return 0
}

// ConeBound is the three-case bound wherever a case fires — below it by no
// more than the per-term slack — and a true lower bound on |<q, x>| whatever
// the angle between the two rejections, including where the cases give up.
func TestConeBoundSoundAndCoversThreeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20000; trial++ {
		qcos, xcos := rng.NormFloat64(), rng.NormFloat64()
		qsin, xsin := math.Abs(rng.NormFloat64()), math.Abs(rng.NormFloat64())
		got := ConeBound(qcos, qsin, xcos, xsin)
		slack := 1.001 * coneSlack * (math.Abs(qcos*xcos) + qsin*xsin)
		if want := threeCaseCone(qcos, qsin, xcos, xsin); want > 0 && (got > want || got < want-slack) {
			t.Fatalf("trial %d: ConeBound %v is not the three-case bound %v less its slack", trial, got, want)
		} else if want == 0 && got > 0 && !(qcos < 0 && xcos < 0) {
			t.Fatalf("trial %d: positive bound %v outside the cases (qcos=%v xcos=%v)", trial, got, qcos, xcos)
		}
		// q = qcos*c + qsin*u, x = xcos*c + xsin*v with u, v unit vectors
		// orthogonal to c at angle alpha: <q, x> = qcos*xcos + qsin*xsin*cos(alpha).
		for _, cosAlpha := range []float64{-1, 1, 2*rng.Float64() - 1} {
			if truth := math.Abs(qcos*xcos + qsin*xsin*cosAlpha); got > truth {
				t.Fatalf("trial %d: bound %v above |<q,x>| = %v (cos alpha %v)", trial, got, truth, cosAlpha)
			}
		}
	}
}

// Rejection is never below the true sqrt(||v||^2 - <v,c>^2/||c||^2) —
// computed here in 200-bit arithmetic — for vectors collinear with the
// direction up to their float32 rounding, where the float64 subtraction
// returns noise or a clamped zero, and it stays within a few guard widths of
// the truth.
func TestRejectionCoversCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bigDot := func(a, b []float32) *big.Float {
		sum := new(big.Float).SetPrec(200)
		for i := range a {
			x := new(big.Float).SetPrec(200).SetFloat64(float64(a[i]))
			sum.Add(sum, x.Mul(x, new(big.Float).SetFloat64(float64(b[i]))))
		}
		return sum
	}
	low := 0
	for trial := 0; trial < 20000; trial++ {
		d := 2 + rng.Intn(6)
		c, v := make([]float32, d), make([]float32, d)
		scale := math.Exp(4 * rng.NormFloat64())
		for i := range c {
			c[i] = float32(1000*rng.Float64() + rng.NormFloat64())
			v[i] = float32(scale * float64(c[i])) // collinear but for the rounding
		}
		sqNorm := Norm(v) * Norm(v)
		proj := Dot(v, c) / Norm(c)
		got := Rejection(sqNorm, proj, d)

		vv, vc, cc := bigDot(v, v), bigDot(v, c), bigDot(c, c)
		rej2 := vc.Mul(vc, vc).Quo(vc, cc).Sub(vv, vc) // ||v||^2 - <v,c>^2/||c||^2
		truth := 0.0
		if rej2.Sign() > 0 {
			truth, _ = new(big.Float).Sqrt(rej2).Float64()
		}
		if math.Sqrt(math.Max(0, sqNorm-proj*proj)) < truth {
			low++
		}
		if width := math.Sqrt(float64(d+1)*0x1p-49) * Norm(v); got < truth || got > truth+2*width {
			t.Fatalf("trial %d (d=%d): Rejection %v, true rejection %v, guard width %v", trial, d, got, truth, width)
		}
	}
	if low == 0 {
		t.Fatal("the unguarded root never came out low: the test does not reach the cancellation it is about")
	}
}

func TestConeSelectMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		xcos := make([]float32, n)
		xsin := make([]float32, n)
		for i := range xcos {
			xcos[i] = float32(rng.NormFloat64())
			xsin[i] = float32(math.Abs(rng.NormFloat64()))
		}
		qcos := rng.NormFloat64()
		qsin := math.Abs(rng.NormFloat64())
		lambda := rng.Float64() * 2
		got := ConeSelect(qcos, qsin, lambda, xcos, xsin, nil)
		var want []int32
		for i := range xcos {
			if ConeBound(qcos, qsin, float64(xcos[i]), float64(xsin[i])) <= lambda {
				want = append(want, int32(i))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: kept %v, want %v", trial, got, want)
		}
	}
}

func TestConeSelectAppendsToExisting(t *testing.T) {
	sel := []int32{99}
	sel = ConeSelect(0, 0, 1, []float32{0}, []float32{0}, sel)
	if len(sel) != 2 || sel[0] != 99 || sel[1] != 0 {
		t.Fatalf("ConeSelect must append, got %v", sel)
	}
}

// --- kernel benchmarks (the bench-regression CI job watches these) ---------

func benchVectors(n, d int) ([]float32, []float32, []float64) {
	rng := rand.New(rand.NewSource(7))
	q, rows := randBlock(rng, n, d)
	return q, rows, make([]float64, n)
}

func BenchmarkDot128(b *testing.B) {
	q, rows, _ := benchVectors(1, 128)
	b.SetBytes(128 * 4)
	for i := 0; i < b.N; i++ {
		sinkF64 = Dot(q, rows)
	}
}

func BenchmarkDotBlock100x128(b *testing.B) {
	q, rows, out := benchVectors(100, 128)
	b.SetBytes(100 * 128 * 4)
	for i := 0; i < b.N; i++ {
		DotBlock(q, rows, out)
	}
}

func BenchmarkDotBlock4x128(b *testing.B) {
	// One pass of the four-row kernel: the floor under every longer block.
	q, rows, out := benchVectors(4, 128)
	b.SetBytes(4 * 128 * 4)
	for i := 0; i < b.N; i++ {
		DotBlock(q, rows, out)
	}
}

// BenchmarkDotBlockMulti is the benchmark probe's shape, 32 queries over 4096
// rows: "tile" as it runs, every query in a group of four; "rest" with three
// queries, which no tile takes, so the per-query path under it.
func BenchmarkDotBlockMulti(b *testing.B) {
	const m, d = 4096, 128
	rng := rand.New(rand.NewSource(7))
	_, rows := randBlock(rng, m, d)
	for _, c := range []struct {
		name string
		nq   int
	}{{"tile", 32}, {"rest", 3}} {
		b.Run(c.name, func(b *testing.B) {
			_, qs := randBlock(rng, c.nq, d)
			out := make([]float64, m*c.nq)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DotBlockMulti(qs, c.nq, rows, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*c.nq), "ns/(row,query)")
		})
	}
}

func BenchmarkMaxDistFrom(b *testing.B) {
	// The build's pass: one node's block of 1000 rows.
	q, rows := randBlock(rand.New(rand.NewSource(9)), 1000, 128)
	b.SetBytes(1000 * 128 * 4)
	for i := 0; i < b.N; i++ {
		sinkInt, sinkF64 = MaxDistBlock(q, rows)
	}
}

func BenchmarkDotLoop100x128(b *testing.B) {
	// The pre-flat-layout leaf scan shape: one Dot call per row.
	q, rows, out := benchVectors(100, 128)
	b.SetBytes(100 * 128 * 4)
	for i := 0; i < b.N; i++ {
		for r := 0; r < 100; r++ {
			out[r] = Dot(q, rows[r*128:(r+1)*128])
		}
	}
}

func BenchmarkSqDistBlock100x128(b *testing.B) {
	q, rows, out := benchVectors(100, 128)
	b.SetBytes(100 * 128 * 4)
	for i := 0; i < b.N; i++ {
		SqDistBlock(q, rows, out)
	}
}

func BenchmarkConeSelect100(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	xcos := make([]float32, 100)
	xsin := make([]float32, 100)
	for i := range xcos {
		xcos[i] = float32(rng.NormFloat64())
		xsin[i] = float32(math.Abs(rng.NormFloat64()))
	}
	sel := make([]int32, 0, 100)
	for i := 0; i < b.N; i++ {
		sel = ConeSelect(0.5, 0.8, 0.3, xcos, xsin, sel[:0])
	}
	sinkInt = len(sel)
}

// BenchmarkBallCutoff64 is the cut on a leaf of 64 points whose centre lies
// beyond lambda, the case that searches; the other returns before the loop.
func BenchmarkBallCutoff64(b *testing.B) {
	xcos, xsin := randLeaf(rand.New(rand.NewSource(8)), 64, 40)
	cut := 0
	for i := 0; i < b.N; i++ {
		cut += BallCutoff(2.5+float64(i&3), 1, 0.3, 40, xcos, xsin)
	}
	sinkInt = cut
}

var (
	sinkF64 float64
	sinkInt int
)
