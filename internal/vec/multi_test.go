package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

func randQueries(rng *rand.Rand, nq, d int) []float32 {
	qs := make([]float32, nq*d)
	for i := range qs {
		qs[i] = float32(rng.NormFloat64())
	}
	return qs
}

func TestDotBlockMultiMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nq := range []int{1, 2, 3, 8, 13} {
		for _, m := range []int{0, 1, 2, 5, 37} {
			for _, d := range []int{1, 3, 4, 17, 128} {
				qs := randQueries(rng, nq, d)
				_, rows := randBlock(rng, m, d)
				out := make([]float64, m*nq)
				DotBlockMulti(qs, nq, rows, out)
				for r := 0; r < m; r++ {
					for qi := 0; qi < nq; qi++ {
						// Bitwise equality with the scalar path: batched and
						// per-query searches must agree with plain ==.
						want := Dot(qs[qi*d:(qi+1)*d], rows[r*d:(r+1)*d])
						if out[r*nq+qi] != want {
							t.Fatalf("nq=%d m=%d d=%d row %d query %d: %v != %v",
								nq, m, d, r, qi, out[r*nq+qi], want)
						}
					}
				}
			}
		}
	}
}

// TestDotBlockMultiIdxMatchesDot checks the widened, limit-aware kernel:
// bitwise equality with the scalar Dot on every computed (query, row)
// product, untouched output entries past each query's limit, and correct
// handling of the shrinking active prefix.
func TestDotBlockMultiIdxMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, nq := range []int{1, 2, 3, 8} {
		for _, m := range []int{1, 2, 7, 40} {
			for _, d := range []int{1, 4, 17, 128} {
				qs := randQueries(rng, nq, d)
				_, rows := randBlock(rng, m, d)
				q64 := make([]float64, len(qs))
				Widen(q64, qs)

				act := make([]int32, nq)
				limits := make([]int32, nq)
				for j := range act {
					act[j] = int32((j * 7) % nq) // arbitrary selection, repeats allowed
					limits[j] = int32(m - j*(m/(nq+1)))
				}
				// limits must be non-increasing; the construction above is.
				const sentinel = -12345.0
				out := make([]float64, m*nq)
				for i := range out {
					out[i] = sentinel
				}
				row64 := make([]float64, d)
				DotBlockMultiIdx(q64, d, act, limits, rows, row64, out)
				for r := 0; r < m; r++ {
					for j := 0; j < nq; j++ {
						got := out[r*nq+j]
						if r >= int(limits[j]) {
							if got != sentinel {
								t.Fatalf("nq=%d m=%d d=%d row %d query %d: wrote past limit %d", nq, m, d, r, j, limits[j])
							}
							continue
						}
						qi := int(act[j])
						want := Dot(qs[qi*d:(qi+1)*d], rows[r*d:(r+1)*d])
						if got != want {
							t.Fatalf("nq=%d m=%d d=%d row %d query %d: %v != %v", nq, m, d, r, j, got, want)
						}
					}
				}
			}
		}
	}
}

func TestMultiKernelsPanicOnShapeMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"dot-nq":   func() { DotBlockMulti(make([]float32, 7), 2, make([]float32, 4), make([]float64, 2)) },
		"dot-rows": func() { DotBlockMulti(make([]float32, 8), 2, make([]float32, 7), make([]float64, 2)) },
		"dot-out":  func() { DotBlockMulti(make([]float32, 8), 2, make([]float32, 8), make([]float64, 3)) },
		"dot-zero": func() { DotBlockMulti(nil, 0, make([]float32, 8), make([]float64, 2)) },
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

// BenchmarkDotBlockMulti measures the multi-query leaf kernel at the batched
// traversal's shape (a leaf block of 100 rows against a group of queries)
// next to the equivalent per-query DotBlock loop, so the row-load
// amortization is visible in isolation.
func BenchmarkDotBlockMulti(b *testing.B) {
	const m, d = 100, 128
	rng := rand.New(rand.NewSource(13))
	_, rows := randBlock(rng, m, d)
	for _, nq := range []int{2, 8, 32} {
		qs := randQueries(rng, nq, d)
		out := make([]float64, m*nq)
		b.Run(fmt.Sprintf("multi-q%d", nq), func(b *testing.B) {
			b.SetBytes(int64(m * d * 4))
			for i := 0; i < b.N; i++ {
				DotBlockMulti(qs, nq, rows, out)
			}
		})
		b.Run(fmt.Sprintf("perquery-q%d", nq), func(b *testing.B) {
			b.SetBytes(int64(m * d * 4))
			tmp := make([]float64, m)
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < nq; qi++ {
					DotBlock(qs[qi*d:(qi+1)*d], rows, tmp)
				}
			}
		})
	}
}
