package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file is the one differential harness for the float kernels: whatever
// implementation the build and the CPU select (Dot, DotBlock, DotBlockMulti,
// SqDistBlock, MaxDistBlock) against the Go references (dotGo,
// dotBlockGo, SqDist), bit for bit. On an AVX2 host it compares assembly with
// Go in one process; under the purego tag, and with useAVX2 switched off, it
// holds the references to each other.

// sameFloat is the harness's equality: equal bits, or NaN where the reference
// is NaN (payloads may differ between an FMA and a multiply-add).
func sameFloat(got, want float64) bool {
	if want != want {
		return got != got
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// tailSlice returns n floats that start off floats into their allocation (so
// only 4-byte aligned when off is odd) and end at its last element.
func tailSlice(off, n int) []float32 {
	return make([]float32, off+n)[off:]
}

// checkFloatKernels runs every float kernel over query q and the m packed
// rows and compares each result with the reference. wide allocates the
// storage the query groups are widened into (the guard-page test puts it at
// the end of a mapping).
func checkFloatKernels(t *testing.T, q, rows []float32, m int, wide func(n int) []float64) {
	t.Helper()
	d := len(q)
	row := func(i int) []float32 { return rows[i*d : (i+1)*d] }
	const sentinel = -12345.5
	out := make([]float64, m+1)
	reset := func() []float64 {
		for i := range out {
			out[i] = sentinel
		}
		return out[:m]
	}
	check := func(kernel string, i int, got, want float64) {
		t.Helper()
		if !sameFloat(got, want) {
			t.Fatalf("d=%d m=%d %s row %d: %v (%#x), reference %v (%#x)", d, m, kernel, i,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if out[m] != sentinel {
			t.Fatalf("d=%d m=%d %s wrote past its output", d, m, kernel)
		}
	}

	reset()
	dots := make([]float64, m)
	for i := range dots {
		dots[i] = dotGo(q, row(i))
		check("Dot", i, Dot(q, row(i)), dots[i])
		check("Dot swapped", i, Dot(row(i), q), dots[i])
	}
	DotBlock(q, rows, reset())
	for i, want := range dots {
		check("DotBlock", i, out[i], want)
	}
	dotBlockGo(q, rows, reset())
	for i, want := range dots {
		check("dotBlockGo", i, out[i], want)
	}
	SqDistBlock(q, rows, reset())
	for i := 0; i < m; i++ {
		check("SqDistBlock", i, out[i], SqDist(q, row(i)))
	}
	if d == 0 {
		return // no matrix and no packed queries of dimension zero
	}

	// The query and the rows, cycled, as packed query groups: every remainder
	// of the tile's four queries against every remainder of its two rows (m
	// runs over both parities in the callers), first whole through
	// DotBlockMulti, then as an index list that runs backwards and repeats
	// itself through a Queries whose widened copy ends where wide says.
	for _, nq := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
		qs := append(make([]float32, 0, nq*d), q...)
		for i := 1; i < nq; i++ {
			if m == 0 {
				qs = append(qs, q...)
			} else {
				qs = append(qs, row((i-1)%m)...)
			}
		}
		want := func(qi, r int) float64 { return dotGo(qs[qi*d:(qi+1)*d], row(r)) }
		multi := make([]float64, m*nq+1)
		multi[m*nq] = sentinel
		DotBlockMulti(qs, nq, rows, multi[:m*nq])
		for r := 0; r < m; r++ {
			for qi := 0; qi < nq; qi++ {
				check(fmt.Sprintf("DotBlockMulti nq=%d query %d", nq, qi), r, multi[r*nq+qi], want(qi, r))
			}
		}
		list := make([]int32, nq+2)
		for k := range list {
			list[k] = int32((2*nq - 1 - k) % nq)
		}
		listed := make([]float64, m*len(list)+1)
		listed[m*len(list)] = sentinel
		b := Queries{wide: wide(nq * d)}
		b.Reset(qs, d)
		b.DotBlock(list, rows, listed[:m*len(list)])
		for r := 0; r < m; r++ {
			for k, qi := range list {
				check(fmt.Sprintf("Queries.DotBlock nq=%d column %d", nq, k), r, listed[r*len(list)+k], want(int(qi), r))
			}
		}
		if multi[m*nq] != sentinel || listed[m*len(list)] != sentinel {
			t.Fatalf("d=%d m=%d nq=%d: a multi-query kernel wrote past its output", d, m, nq)
		}
	}

	if m == 0 {
		return
	}
	// The builder's pass over a block: the farthest row, the first on a tie.
	bestPos, best := 0, -1.0
	for i := 0; i < m; i++ {
		if want := SqDist(row(i), q); want > best {
			bestPos, best = i, want
		}
	}
	if pos, dist := MaxDistBlock(q, rows); pos != bestPos || !sameFloat(dist, math.Sqrt(best)) {
		t.Fatalf("d=%d m=%d MaxDistBlock = (%d, %v), reference (%d, %v)", d, m, pos, dist, bestPos, math.Sqrt(best))
	}
}

// queries returns a Queries over n zero floats of dimension d.
func queries(n, d int) *Queries {
	b := new(Queries)
	b.Reset(make([]float32, n), d)
	return b
}

func heapFloat64s(n int) []float64 { return make([]float64, n) }

// float32 values where rounding, overflow and NaN propagation are decided.
var (
	finiteSpecials = []float32{0, float32(math.Copysign(0, -1)), 1, -1,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, // denormals
		math.MaxFloat32, -math.MaxFloat32, 1e30, -1e-30, 16777217}
	nonFinite = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
)

// fillFloats fills s for one of three regimes: 0 unit normals, 1 magnitudes
// across the whole float32 range with denormals and extremes mixed in, 2 the
// same plus infinities and NaNs.
func fillFloats(rng *rand.Rand, s []float32, regime int) {
	for i := range s {
		switch {
		case regime == 0:
			s[i] = float32(rng.NormFloat64())
		case regime == 2 && rng.Intn(8) == 0:
			s[i] = nonFinite[rng.Intn(len(nonFinite))]
		case rng.Intn(4) == 0:
			s[i] = finiteSpecials[rng.Intn(len(finiteSpecials))]
		default:
			s[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		}
	}
}

// runFloatKernelTable covers every tail length (d = 0..140), every row-group
// remainder (0..9 rows) and three alignments, in each value regime.
func runFloatKernelTable(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for d := 0; d <= 140; d++ {
		for m := 0; m <= 9; m++ {
			for off := 0; off < 3; off++ {
				q, rows := tailSlice(off, d), tailSlice(3-off, m*d)
				fillFloats(rng, q, (d+m+off)%3)
				fillFloats(rng, rows, (d+m+off)%3)
				checkFloatKernels(t, q, rows, m, heapFloat64s)
			}
		}
	}
}

// runSignedZeroTable pins what the tile's tail step rests on. A tail element
// reaches lanes 1 to 3 as +0 * +0, and adding that must leave s1, s2 and s3 as
// they are, which fails for exactly one value: -0 + +0 is +0. No chain holds
// -0, though, because it starts at +0 and x + y is -0 only when both are —
// so rows of -0 against whole query groups of every sign, with ±Inf and NaN
// lanes beside them, must come out of the tile with Dot's bits at every
// tail length.
func runSignedZeroTable(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	lanes := []float32{1, -1, 0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 129, 130, 131} {
		for m := 1; m <= 5; m++ {
			for shift := range lanes {
				q, rows := make([]float32, d), make([]float32, m*d)
				for i := range q {
					q[i] = lanes[(i+shift)%4] // finite: every product is a signed zero
				}
				for i := range rows {
					rows[i] = negZero
				}
				if shift >= 4 {
					rows[(m-1)*d+d/2] = lanes[shift]
					q[d-1] = lanes[shift]
				}
				checkFloatKernels(t, q, rows, m, heapFloat64s)
			}
		}
	}
}

func TestFloatKernelsMatchReference(t *testing.T) {
	runFloatKernelTable(t)
	runSignedZeroTable(t)
}

// FuzzFloatKernels feeds the harness raw bit patterns, so denormals,
// infinities and NaNs with arbitrary payloads arrive unprompted.
func FuzzFloatKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 128, 127, 1, 0, 0, 0}, uint8(7), uint8(5), uint8(1))
	f.Add([]byte{255, 255, 127, 127, 0, 0, 192, 255, 219, 15, 73, 64}, uint8(129), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dim, nrows, off uint8) {
		d, m := int(dim)%141, int(nrows)%10
		raw = append(raw, 0, 0, 0, 0)
		at := 0
		next := func(s []float32) {
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[at%(len(raw)-3):]))
				at += 4
			}
		}
		q, rows := tailSlice(int(off)%4, d), tailSlice(int(off/4)%4, m*d)
		next(q)
		next(rows)
		checkFloatKernels(t, q, rows, m, heapFloat64s)
	})
}

func TestFloatKernelsKeepPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":          func() { Dot([]float32{1}, []float32{1, 2}) },
		"SqDistBlock":  func() { SqDistBlock(make([]float32, 2), make([]float32, 4), make([]float64, 3)) },
		"MaxDistBlock": func() { MaxDistBlock(make([]float32, 3), make([]float32, 4)) },
		"multi-nq":     func() { DotBlockMulti(make([]float32, 7), 2, make([]float32, 4), make([]float64, 2)) },
		"multi-rows":   func() { DotBlockMulti(make([]float32, 8), 2, make([]float32, 7), make([]float64, 2)) },
		"multi-out":    func() { DotBlockMulti(make([]float32, 8), 2, make([]float32, 8), make([]float64, 3)) },
		"multi-zero":   func() { DotBlockMulti(nil, 0, make([]float32, 8), make([]float64, 2)) },
		"queries-dim":  func() { new(Queries).Reset(make([]float32, 8), 0) },
		"queries-rows": func() { new(Queries).Reset(make([]float32, 7), 2) },
		"tile-rows":    func() { queries(8, 2).DotBlock([]int32{0, 1, 2, 3}, make([]float32, 3), make([]float64, 4)) },
		"tile-out":     func() { queries(8, 2).DotBlock([]int32{0, 1, 2, 3}, make([]float32, 4), make([]float64, 7)) },
		"tile-index":   func() { queries(8, 2).DotBlock([]int32{0, 1, 2, 4}, make([]float32, 4), make([]float64, 8)) },
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
	// Empty inputs are not errors.
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %v", got)
	}
	out := []float64{1, 1}
	DotBlock(nil, nil, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("DotBlock over zero-dimensional rows = %v, want zeros", out)
	}
	DotBlock(make([]float32, 3), nil, nil)
}

// TestDotBlockMultiShapes sweeps the query-group sizes the table does not.
func TestDotBlockMultiShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nq := range []int{1, 2, 8, 13} {
		for _, m := range []int{0, 1, 5, 37} {
			for _, d := range []int{1, 17, 128} {
				_, qs := randBlock(rng, nq, d)
				_, rows := randBlock(rng, m, d)
				out := make([]float64, m*nq)
				DotBlockMulti(qs, nq, rows, out)
				for r := 0; r < m; r++ {
					for qi := 0; qi < nq; qi++ {
						want := dotGo(qs[qi*d:(qi+1)*d], rows[r*d:(r+1)*d])
						if out[r*nq+qi] != want {
							t.Fatalf("nq=%d m=%d d=%d row %d query %d: %v != %v", nq, m, d, r, qi, out[r*nq+qi], want)
						}
					}
				}
			}
		}
	}
}
