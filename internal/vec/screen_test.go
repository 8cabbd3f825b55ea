package vec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkScreens holds the float32 screen to its contract over query q and the
// m packed rows: every finite screened value, from the kernel the build
// selects and from the Go reference, lies within its bound of the float64
// value, and no screened pass rules out a row the float64 kernel keeps —
// FarthestBlock finds the float64 argmax (the first on a tie) above every
// floor, SqDistLE gives the float64 comparison, and DotBlockWithin and
// Queries.DotBlockWithin list every row with |<q, x>| at or under lambda,
// each once and with Dot's bits. The lambdas are the rows' own |<q, x>| (ties
// at the threshold), their neighbours, zero, +Inf and NaN.
func checkScreens(t *testing.T, q, rows []float32, m int) {
	t.Helper()
	d := len(q)
	if d == 0 || m == 0 {
		return
	}
	row := func(i int) []float32 { return rows[i*d : (i+1)*d] }
	e, a := screenSlack(d)

	// The kernels' bounds.
	s32, sGo := make([]float32, m), make([]float32, m)
	SqDistBlock32(q, rows, s32)
	sqDistBlock32Go(q, rows, sGo)
	ip, sqn, ipGo, sqnGo := make([]float32, m), make([]float32, m), make([]float32, m), make([]float32, m)
	dotBlock32Arch(q, rows, ip, sqn)
	dotBlock32Go(q, rows, ipGo, sqnGo)
	qn := Norm(q)
	for i := 0; i < m; i++ {
		want := SqDist(q, row(i))
		for _, s := range []float32{s32[i], sGo[i]} {
			if lo, hi, ok := distBounds(s, e, a); ok && !(lo <= want && want <= hi) {
				t.Fatalf("d=%d m=%d row %d: screened squared distance %v, float64 %v outside [%v, %v]", d, m, i, s, want, lo, hi)
			}
		}
		dot := dotGo(q, row(i))
		for j, p := range []float32{ip[i], ipGo[i]} {
			n := []float32{sqn[i], sqnGo[i]}[j]
			if bound, ok := dotThreshold(d, qn, 0, n); ok && !(math.Abs(float64(p)-dot) <= bound) {
				t.Fatalf("d=%d m=%d row %d: screened product %v, float64 %v, bound %v", d, m, i, p, dot, bound)
			}
		}
	}

	// FarthestBlock against the float64 argmax, above floors that tie rows.
	// The thresholds come from a few rows (and the farthest): enough for
	// every tie, without making the harness quadratic in m.
	some := []int{0, m / 2, m - 1}
	floors := []float64{-1, 0}
	far, _ := MaxDistBlock(q, rows)
	for _, i := range append(some, far) {
		v := SqDist(q, row(i))
		floors = append(floors, v, math.Nextafter(v, math.Inf(-1)))
	}
	for _, floor := range floors {
		wantPos, want := -1, floor
		for i := 0; i < m; i++ {
			if v := SqDist(q, row(i)); v > want {
				wantPos, want = i, v
			}
		}
		if pos, got := FarthestBlock(q, rows, floor, make([]float32, m)); pos != wantPos || !sameFloat(got, want) {
			t.Fatalf("d=%d m=%d floor %v: FarthestBlock = (%d, %v), float64 (%d, %v)", d, m, floor, pos, got, wantPos, want)
		}
	}

	// SqDistLE: every row between q and the last row, and between q and q
	// negated, whose distances tie on zero rows.
	neg := make([]float32, d)
	for j, v := range q {
		neg[j] = -v
	}
	for _, b := range [][]float32{row(m - 1), neg} {
		sb := make([]float32, m)
		SqDistBlock32(b, rows, sb)
		for i := 0; i < m; i++ {
			want := SqDist(q, row(i)) <= SqDist(b, row(i))
			if got := SqDistLE(q, b, row(i), s32[i], sb[i]); got != want {
				t.Fatalf("d=%d m=%d row %d: SqDistLE = %v, float64 %v", d, m, i, got, want)
			}
		}
	}

	// DotBlockWithin, alone and as the tile of four queries: q and the rows.
	dots := make([]float64, m)
	lambdas := []float64{0, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	for i := range dots {
		dots[i] = dotGo(q, row(i))
	}
	for _, i := range some {
		v := math.Abs(dots[i])
		lambdas = append(lambdas, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	// listed checks a kept list over n products: no position twice, Dot's
	// bits at every listed one, and every product at or under its lambda (or
	// NaN) listed.
	listed := func(what string, kept []int32, n int, lambda func(i int) float64, got []float64, want func(i int) float64) {
		t.Helper()
		seen := make([]bool, n)
		for _, i := range kept {
			if seen[i] {
				t.Fatalf("d=%d m=%d %s: position %d listed twice", d, m, what, i)
			}
			seen[i] = true
			if !sameFloat(got[i], want(int(i))) {
				t.Fatalf("d=%d m=%d %s lambda %v: position %d is %v, float64 %v", d, m, what, lambda(int(i)), i, got[i], want(int(i)))
			}
		}
		for i, ok := range seen {
			if !ok && !(math.Abs(want(i)) > lambda(i)) {
				t.Fatalf("d=%d m=%d %s lambda %v: position %d (float64 %v) ruled out", d, m, what, lambda(i), i, want(i))
			}
		}
	}
	out := make([]float64, m)
	for _, lambda := range lambdas {
		kept := DotBlockWithin(q, qn, lambda, rows, out, nil)
		listed("DotBlockWithin", kept, m, func(int) float64 { return lambda }, out, func(i int) float64 { return dots[i] })
	}
	qs := append([]float32(nil), q...)
	for k := 1; k < TileQueries; k++ {
		qs = append(qs, row((k-1)%m)...)
	}
	var b Queries
	b.Reset(qs, d)
	list := []int32{2, 0, 3, 1}
	g := len(list)
	tile := make([]float64, m*g)
	for li := range lambdas {
		lam := make([]float64, g)
		for k := range lam {
			lam[k] = lambdas[(li+k)%len(lambdas)]
		}
		kept := b.DotBlockWithin(list, lam, rows, tile, nil)
		listed("Queries.DotBlockWithin", kept, m*g, func(i int) float64 { return lam[i%g] }, tile, func(i int) float64 {
			qi := int(list[i%g])
			return dotGo(qs[qi*d:(qi+1)*d], row(i/g))
		})
	}
}

// screenDims are the dimensions the adversarial table runs at: every tail
// length of the eight-lane kernels around one and two registers, a lifted
// Sift row and a lifted Gist row.
var screenDims = []int{1, 2, 3, 7, 8, 9, 16, 129, 960}

// runScreenTable runs checkScreens over inputs built to defeat a careless
// bound: products that cancel to almost nothing, coordinates whose products
// and squares overflow float32 but not float64, subnormals, NaN and ±Inf, and
// exact duplicates, whose distances and products tie.
func runScreenTable(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, d := range screenDims {
		for _, m := range []int{1, 3, 4, 5, 9, 130} {
			for regime := range 6 {
				q, rows := make([]float32, d), make([]float32, m*d)
				fillScreenCase(rng, regime, q, rows)
				checkScreens(t, q, rows, m)
			}
		}
	}
}

// fillScreenCase fills one adversarial case of runScreenTable.
func fillScreenCase(rng *rand.Rand, regime int, q, rows []float32) {
	d := len(q)
	fillFloats(rng, q, 0)
	fillFloats(rng, rows, 0)
	switch regime {
	case 0: // cancellation: large rows whose product with q nearly vanishes
		for r := 0; r+1 <= len(rows)/d; r++ {
			x := rows[r*d : (r+1)*d]
			for j := range x {
				x[j] *= 1e6
			}
			if d > 1 && q[d-1] != 0 {
				x[d-1] = float32(-dotGo(q[:d-1], x[:d-1]) / float64(q[d-1]))
			}
		}
	case 1: // magnitudes whose products and squares overflow float32
		for j := range q {
			q[j] *= 1e19
		}
		for i := range rows {
			if rng.Intn(3) == 0 {
				rows[i] *= 1e21
			}
		}
	case 2: // subnormals and values near the bottom of the range
		for j := range q {
			q[j] *= 1e-38
		}
		for i := range rows {
			rows[i] *= []float32{1e-39, 1e-45, 1e-20, 0}[rng.Intn(4)]
		}
	case 3: // NaN and ±Inf among finite values
		fillFloats(rng, rows, 2)
		if rng.Intn(2) == 0 {
			q[rng.Intn(d)] = nonFinite[rng.Intn(len(nonFinite))]
		}
	case 4: // exact duplicates and zero rows: tied distances and products
		m := len(rows) / d
		for r := 1; r < m; r++ {
			src := rng.Intn(r)
			if rng.Intn(4) == 0 {
				clear(rows[r*d : (r+1)*d])
			} else {
				copy(rows[r*d:(r+1)*d], rows[src*d:(src+1)*d])
			}
		}
	case 5: // rows beside their negations: products of one magnitude, both signs
		for r := 0; r < len(rows)/d; r++ {
			x := rows[r*d : (r+1)*d]
			if r%2 == 1 {
				for j := range x {
					x[j] = -rows[(r-1)*d+j]
				}
			}
		}
		slices.Reverse(q)
	}
}

func TestScreenNeverRulesOutAKeptRow(t *testing.T) {
	runScreenTable(t)
}

// TestScreenRulesOutFarRows checks that the screen does its job on ordinary
// data: against a lambda at the tenth smallest |<q, x>| of 128 Gaussian rows
// of a lifted Sift dimension, most rows are screened out, alone and in the
// tile.
func TestScreenRulesOutFarRows(t *testing.T) {
	const m, d = 128, 129
	rng := rand.New(rand.NewSource(5))
	_, rows := randBlock(rng, m, d)
	_, qs := randBlock(rng, TileQueries, d)
	var b Queries
	b.Reset(qs, d)
	lambdas := make([]float64, TileQueries)
	for k := range lambdas {
		abs := make([]float64, m)
		for r := range abs {
			abs[r] = math.Abs(Dot(qs[k*d:(k+1)*d], rows[r*d:(r+1)*d]))
		}
		slices.Sort(abs)
		lambdas[k] = abs[9]
	}
	out := make([]float64, m)
	kept := DotBlockWithin(qs[:d], Norm(qs[:d]), lambdas[0], rows, out, nil)
	tile := make([]float64, m*TileQueries)
	keptTile := b.DotBlockWithin([]int32{0, 1, 2, 3}, lambdas, rows, tile, nil)
	for name, c := range map[string][2]int{"DotBlockWithin": {len(kept), m}, "Queries.DotBlockWithin": {len(keptTile), len(tile)}} {
		if c[0]*10 > c[1]*2 {
			t.Fatalf("%s: %d of %d products left to float64, want at most 20 %%", name, c[0], c[1])
		}
	}
}
