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
	g := NewConeGrid(1, 1, 4)
	for name, f := range map[string]func(){
		"dot":  func() { DotBlock(make([]float32, 3), make([]float32, 7), make([]float64, 2)) },
		"cone": func() { ConeSelect(0, 0, 1, &g, make([]uint16, 2), make([]uint16, 3), nil) },
		"ball": func() { BallCutoff(1, 1, 0, &g, make([]uint16, 2), make([]uint16, 3)) },
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

// randLeaf draws the codes of a leaf of radius 3 around a centre of norm
// centerNorm and orders them as the builder does, by descending SqRadius.
func randLeaf(rng *rand.Rand, n int, centerNorm float64) (g ConeGrid, cos, sin []uint16) {
	g = NewConeGrid(centerNorm, 3, 8)
	type pair struct{ c, s uint16 }
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{uint16(rng.Intn(1 << 16)), uint16(rng.Intn(1 << 16))}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		return g.SqRadius(pairs[a].c, pairs[a].s) > g.SqRadius(pairs[b].c, pairs[b].s)
	})
	cos, sin = make([]uint16, n), make([]uint16, n)
	for i, p := range pairs {
		cos[i], sin[i] = p.c, p.s
	}
	return g, cos, sin
}

// ballCutoffScan is the linear scan the binary search must agree with, over
// the same derived values and the same comparison of squares. Pruning is
// strict: only a bound strictly above lambda cuts.
func ballCutoffScan(absIP, qnorm, lambda float64, g *ConeGrid, cos, sin []uint16) int {
	for i := range cos {
		var pruned bool
		if qnorm <= 0 {
			pruned = absIP > lambda
		} else if t := (absIP - lambda) / qnorm; t > 0 {
			pruned = g.SqRadius(cos[i], sin[i]) < t*t
		}
		if pruned {
			return i
		}
	}
	return len(cos)
}

// The cut BallCutoff finds is the one a scan finds, and it is Corollary 1's:
// every point before it has absIP - qnorm*Radius <= lambda and every point
// from it on has that bound above lambda, up to the last bit of the
// comparison.
func TestBallCutoffMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		centerNorm := []float64{0, 1, 40}[trial%3]
		g, cos, sin := randLeaf(rng, rng.Intn(70), centerNorm)
		absIP := rng.Float64() * 8
		qnorm := rng.Float64() * 2
		lambda := rng.Float64() * 6
		if trial%7 == 0 {
			lambda = math.Inf(1) // a collector that is not full yet
		}
		got := BallCutoff(absIP, qnorm, lambda, &g, cos, sin)
		if want := ballCutoffScan(absIP, qnorm, lambda, &g, cos, sin); got != want {
			t.Fatalf("trial %d: cutoff %d != %d (absIP=%v qnorm=%v lambda=%v)", trial, got, want, absIP, qnorm, lambda)
		}
		for i := range cos {
			lb := absIP - qnorm*g.Radius(cos[i], sin[i])
			if tol := 1e-12 * (absIP + lambda); (i < got && lb > lambda+tol) || (i >= got && lb < lambda-tol) {
				t.Fatalf("trial %d: point %d has ball bound %v against lambda %v, cutoff %d", trial, i, lb, lambda, got)
			}
		}
	}
}

func TestBallCutoffZeroQnorm(t *testing.T) {
	g := NewConeGrid(1, 4, 3)
	cos, sin := []uint16{60000, 50000, 40000}, []uint16{3000, 2000, 1000}
	if got := BallCutoff(5, 0, 4, &g, cos, sin); got != 0 {
		t.Fatalf("constant bound above lambda must cut everything, got %d", got)
	}
	if got := BallCutoff(5, 0, 6, &g, cos, sin); got != len(cos) {
		t.Fatalf("constant bound below lambda must keep everything, got %d", got)
	}
}

// Radius is the hypotenuse over the decoded legs, widened along the centre by
// one xcos step and by legSlack's share of C + R, give or take the rounding of
// the root.
func TestConeGridRadiusIsTheWidenedHypotenuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		centerNorm := math.Abs(rng.NormFloat64()) * math.Pow(2, float64(rng.Intn(40)-10))
		radius := centerNorm * math.Pow(2, -float64(rng.Intn(40)-5))
		if trial%5 == 0 {
			centerNorm = 0
		}
		g := NewConeGrid(centerNorm, radius, 1+rng.Intn(200))
		c, s := uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		pc, ps := g.Pair(c, s)
		want := math.Hypot(ps, math.Abs(pc-centerNorm)+g.cosStep+legSlack*(centerNorm+radius))
		if got := g.Radius(c, s); math.Abs(got-want) > 0x1p-50*want {
			t.Fatalf("trial %d: Radius(%d, %d) = %v on grid %+v, want %v", trial, c, s, got, g, want)
		}
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
		g, cos, sin := randLeaf(rng, rng.Intn(50), 1)
		qcos := rng.NormFloat64()
		qsin := math.Abs(rng.NormFloat64())
		lambda := rng.Float64() * 2
		got := ConeSelect(qcos, qsin, lambda, &g, cos, sin, nil)
		var want []int32
		for i := range cos {
			if xcos, xsin := g.Pair(cos[i], sin[i]); ConeBound(qcos, qsin, xcos, xsin) <= lambda {
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
	g := NewConeGrid(1, 1, 2)
	sel = ConeSelect(0, 0, 1, &g, []uint16{0}, []uint16{0}, sel)
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
// rows of a lifted Sift dimension (d = 129, so the d%4 tail runs): "tile" as
// it runs, every query in a group of four; "rest" with three queries, which
// no tile takes, so the per-query path under it.
func BenchmarkDotBlockMulti(b *testing.B) {
	const m, d = 4096, 129
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
	// The build's pass: one node's block of 1000 lifted Sift rows, screened.
	q, rows := randBlock(rand.New(rand.NewSource(9)), 1000, 129)
	b.SetBytes(1000 * 129 * 4)
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

// screenSweepRows is how many lifted Sift rows make the 26 MB sweep: the
// benchmark fixture's 50 000 points, which a build reads once per level.
const screenSweepRows = 50000

// BenchmarkScreen times the float32 screen kernels beside the float64 code
// they stand in front of — the scalar SqDist a distance screen recomputes
// with, DotBlock and the tile — on d = 129 rows: "cache" over a block of
// 100 rows that stays in L1, "sweep" over the 26 MB of the benchmark corpus.
// The tile reports ns per (row, query), the others ns per row.
func BenchmarkScreen(b *testing.B) {
	const d = 129
	rng := rand.New(rand.NewSource(7))
	q, all := randBlock(rng, screenSweepRows, d)
	_, qs := randBlock(rng, TileQueries, d)
	var wide Queries
	wide.Reset(qs, d)
	tileIdx := []int32{0, 1, 2, 3}
	for _, size := range []struct {
		name string
		m    int
	}{{"cache", 100}, {"sweep", screenSweepRows}} {
		rows := all[:size.m*d]
		out64 := make([]float64, size.m*TileQueries)
		out32 := make([]float32, size.m*TileQueries)
		sqn := make([]float32, size.m)
		for _, k := range []struct {
			name    string
			perCall int
			run     func()
		}{
			{"SqDist", size.m, func() {
				for r := range size.m {
					out64[r] = SqDist(q, rows[r*d:(r+1)*d])
				}
			}},
			{"SqDistBlock32", size.m, func() { SqDistBlock32(q, rows, out32[:size.m]) }},
			{"DotBlock", size.m, func() { DotBlock(q, rows, out64[:size.m]) }},
			{"DotBlock32", size.m, func() { dotBlock32Arch(q, rows, out32[:size.m], sqn) }},
			{"Tile", size.m * TileQueries, func() { wide.DotBlock(tileIdx, rows, out64) }},
			{"Tile32", size.m * TileQueries, func() { wide.dotTile32(tileIdx, rows, out32, sqn) }},
		} {
			b.Run(size.name+"/"+k.name, func(b *testing.B) {
				b.SetBytes(int64(size.m * d * 4))
				for i := 0; i < b.N; i++ {
					k.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k.perCall), "ns/op-unit")
			})
		}
	}
}

func BenchmarkConeSelect100(b *testing.B) {
	g, cos, sin := randLeaf(rand.New(rand.NewSource(8)), 100, 1)
	sel := make([]int32, 0, 100)
	for i := 0; i < b.N; i++ {
		sel = ConeSelect(0.5, 0.8, 0.3, &g, cos, sin, sel[:0])
	}
	sinkInt = len(sel)
}

// BenchmarkBallCutoff64 is the cut on a leaf of 64 points whose centre lies
// beyond lambda, the case that searches; the other returns before the loop.
func BenchmarkBallCutoff64(b *testing.B) {
	g, cos, sin := randLeaf(rand.New(rand.NewSource(8)), 64, 40)
	cut := 0
	for i := 0; i < b.N; i++ {
		cut += BallCutoff(2.5+float64(i&3), 1, 0.3, &g, cos, sin)
	}
	sinkInt = cut
}

var (
	sinkF64 float64
	sinkInt int
)
