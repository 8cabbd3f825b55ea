package vec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// leafGrid forms a leaf over rows as the builder does — the centroid for a
// centre, the greatest distance from it with the builder's relative slack,
// rounded up to float32, for a radius — and returns its centre, its grids and
// the centre's norm and the radius they were derived from.
func leafGrid(rows [][]float32, extra float64) (center []float32, g ConeGrid, centerNorm, radius float64) {
	d := len(rows[0])
	block := make([]float32, 0, len(rows)*d)
	for _, r := range rows {
		block = append(block, r...)
	}
	center = make([]float32, d)
	CentroidBlock(block, make([]float64, d), center)
	_, maxDist := MaxDistBlock(center, block)
	radius = float64(up32(maxDist*(1+1e-9))) + extra
	centerNorm = Norm(center)
	return center, NewConeGrid(centerNorm, radius, d), centerNorm, radius
}

// up32 returns the smallest float32 not below v.
func up32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// checkCodedOutward encodes x's cone pair on g and requires the decoded pair
// outward and within one step — |xcos| toward zero, xsin up — and the radius
// derived from it at or above x's distance from the centre.
func checkCodedOutward(t *testing.T, what string, g *ConeGrid, x, center []float32, centerNorm float64) {
	t.Helper()
	xcos, xsin := ConePair(x, center, centerNorm)
	c, s := g.Encode(xcos, xsin)
	pc, ps := g.Pair(c, s)
	// Within one step: the grid value one further out is beyond the pair.
	outward := c + 1
	if xcos < 0 {
		outward = c - 1
	}
	beyond, _ := g.Pair(outward, 0)
	if math.Abs(pc) > math.Abs(xcos) || pc*xcos < 0 || math.Abs(beyond) <= math.Abs(xcos) {
		t.Fatalf("%s: xcos %v codes to %v, not toward zero within a step (next %v)", what, xcos, pc, beyond)
	}
	if _, below := g.Pair(0, s-1); ps < xsin || (s > 0 && below >= xsin) {
		t.Fatalf("%s: xsin %v codes to %v, not up within a step", what, xsin, ps)
	}
	if r, dist := g.Radius(c, s), math.Sqrt(SqDist(x, center)); r < dist {
		t.Fatalf("%s: derived radius %v below the distance %v", what, r, dist)
	}
}

// TestConeGridCodesOutward codes every point of hand-built leaves that sit
// where the grids have the least room: duplicates (radius zero), a centre
// 2^0 to 2^30 radii from the origin, a centre at the origin, denormal
// coordinates, and projections that are zero or negative.
func TestConeGridCodesOutward(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	leaves := map[string][][]float32{}
	dup := make([][]float32, 9)
	for i := range dup {
		dup[i] = []float32{3, -1, 2.5, 1}
	}
	leaves["duplicates"] = dup
	for k := 0; k <= 30; k += 3 {
		off := math.Pow(2, float64(k))
		rows := make([][]float32, 40)
		for i := range rows {
			rows[i] = []float32{float32(off + rng.NormFloat64()), float32(rng.NormFloat64()), float32(off * rng.Float64() * 0x1p-30), 1}
		}
		leaves[fmt.Sprintf("offset 2^%d", k)] = rows
	}
	var pairs [][]float32
	for i := 0; i < 12; i++ {
		x := []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		pairs = append(pairs, x, []float32{-x[0], -x[1], -x[2]})
	}
	leaves["origin-centred"] = pairs
	denormal := make([][]float32, 16)
	for i := range denormal {
		denormal[i] = []float32{
			math.Float32frombits(uint32(rng.Intn(1 << 12))), -math.Float32frombits(uint32(rng.Intn(1 << 20))),
			math.Float32frombits(uint32(rng.Intn(1 << 16))),
		}
	}
	leaves["denormal"] = denormal
	// The centroid is (2/3, 0): the second and third points project to zero.
	leaves["zero projections"] = [][]float32{{2, 0}, {0, 2}, {0, -2}}
	// The centroid is (1/3, 0): the last two points project to -1.
	leaves["negative projections"] = [][]float32{{3, 0}, {-1, 1}, {-1, -1}}

	for name, rows := range leaves {
		for _, extra := range []float64{0, 1e-3, 7} {
			center, g, cn, _ := leafGrid(rows, extra)
			for i, x := range rows {
				checkCodedOutward(t, fmt.Sprintf("%s (radius +%v) point %d", name, extra, i), &g, x, center, cn)
			}
		}
	}
	_, g, _, _ := leafGrid(leaves["zero projections"], 0)
	if c, _ := g.Encode(0, 0); c == 0 || func() bool { pc, _ := g.Pair(c, 0); return pc != 0 }() {
		t.Fatalf("zero is not an inner grid value: it codes to %d", c)
	}
}

// TestConeGridValuesAreExact: every grid value is the exact product of its
// index and the step — decoding rounds nothing — for grids of a duplicate
// leaf (radius zero) and of radii 2^-60 to 2^20 times the centre's norm.
func TestConeGridValuesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3000; trial++ {
		centerNorm := math.Abs(rng.NormFloat64()) * math.Pow(2, float64(rng.Intn(200)-100))
		radius := centerNorm * math.Pow(2, float64(rng.Intn(81)-60))
		if trial%10 == 0 {
			radius = 0
		}
		g := NewConeGrid(centerNorm, radius, 1+rng.Intn(1<<10))
		for _, step := range []float64{g.cosStep, g.sinStep} {
			if _, frac := math.Frexp(step); step <= 0 || stepAbove(step) != step {
				t.Fatalf("trial %d: step %v (exponent %d) has more than 17 significant bits", trial, step, frac)
			}
		}
		for _, code := range []uint16{0, 1, uint16(rng.Intn(1 << 16)), math.MaxUint16} {
			pc, ps := g.Pair(code, code)
			wantC := new(big.Float).SetPrec(200).Mul(big.NewFloat(g.cosLow+float64(code)), big.NewFloat(g.cosStep))
			wantS := new(big.Float).SetPrec(200).Mul(big.NewFloat(float64(code)), big.NewFloat(g.sinStep))
			if wantC.Cmp(big.NewFloat(pc)) != 0 || wantS.Cmp(big.NewFloat(ps)) != 0 {
				t.Fatalf("trial %d: code %d decodes to %v, %v, not the exact products %v, %v", trial, code, pc, ps, wantC, wantS)
			}
		}
		// The codes span the computed pairs' whole domain, with a step to spare.
		lo, _ := g.Pair(0, 0)
		hi, top := g.Pair(math.MaxUint16, math.MaxUint16)
		span := radius + gridRel*(centerNorm+radius)
		if lo > centerNorm-span || hi < centerNorm+span || top < radius {
			t.Fatalf("trial %d: grid [%v, %v] x [0, %v] does not cover C=%v R=%v", trial, lo, hi, top, centerNorm, radius)
		}
	}
}

// TestStepAbove: the least 17-bit float not below v, also where the round
// up carries into the exponent.
func TestStepAbove(t *testing.T) {
	for _, v := range []float64{1, 1.5, math.Nextafter(1, 2), math.Nextafter(2, 0), 3 * 0x1p-1000, 1e300, 0x1.ffffp0} {
		got := stepAbove(v)
		mant, _ := math.Frexp(got)
		if got < v || got > v*(1+0x1p-16) || mant*0x1p17 != math.Trunc(mant*0x1p17) {
			t.Errorf("stepAbove(%v) = %v", v, got)
		}
	}
	if got := stepAbove(math.Nextafter(2, 0)); got != 2 {
		t.Errorf("stepAbove just below 2 = %v, want the carry to 2", got)
	}
}

func TestConeGridEncodePanicsOffTheGrid(t *testing.T) {
	g := NewConeGrid(10, 1, 4)
	for name, pair := range map[string][2]float64{
		"projection beyond C+R'": {11.5, 0.5},
		"projection below C-R'":  {8.5, 0.5},
		"rejection beyond S":     {10, 1.5},
		"NaN projection":         {math.NaN(), 0.5},
		"infinite rejection":     {10, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Encode(%v, %v) did not panic", name, pair[0], pair[1])
				}
			}()
			g.Encode(pair[0], pair[1])
		}()
	}
}

// FuzzConeGrid: any finite centre and point in up to 33 dimensions, with the
// leaf's radius at the point's distance or beyond it, encode to codes that
// decode outward and within a step, with a derived radius at or above the
// distance.
func FuzzConeGrid(f *testing.F) {
	f.Add(float32(1), float32(2), float32(3), float32(1.5), float32(2), float32(2.5), float32(0), uint8(0))
	f.Add(float32(1e30), float32(0), float32(1), float32(1e30), float32(1), float32(1), float32(0), uint8(3))
	f.Add(float32(0), float32(0), float32(0), float32(-1), float32(0), float32(0), float32(2), uint8(1))
	f.Add(float32(1e-40), float32(-1e-44), float32(0), float32(3e-39), float32(0), float32(1e-45), float32(0), uint8(7))
	f.Add(float32(5), float32(5), float32(5), float32(5), float32(5), float32(5), float32(0), uint8(2))
	f.Fuzz(func(t *testing.T, c0, c1, c2, x0, x1, x2, extra float32, reps uint8) {
		for _, v := range []float32{c0, c1, c2, x0, x1, x2, extra} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return
			}
		}
		n := 1 + int(reps%11)
		center, x := make([]float32, 0, 3*n), make([]float32, 0, 3*n)
		for i := 0; i < n; i++ {
			center = append(center, c0, c1, c2)
			x = append(x, x0, x1, x2)
		}
		radius := float64(up32(math.Sqrt(SqDist(x, center))*(1+1e-9))) + math.Abs(float64(extra))
		centerNorm := Norm(center)
		g := NewConeGrid(centerNorm, radius, len(x))
		checkCodedOutward(t, "fuzzed leaf", &g, x, center, centerNorm)
	})
}
