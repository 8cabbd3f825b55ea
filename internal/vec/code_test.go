package vec

import (
	"math"
	"math/rand"
	"testing"
)

// codeDotRef is the obvious scalar reference the kernels must match exactly.
func codeDotRef(codes []uint8, w []int16) int64 {
	var s int64
	for j := range codes {
		s += int64(codes[j]) * int64(w[j])
	}
	return s
}

func TestCodeDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 33, 100, 129,
		codeChunk - 1, codeChunk, codeChunk + 1, 2*codeChunk + 5}
	for _, n := range lengths {
		codes := make([]uint8, n)
		w := make([]int16, n)
		for trial := 0; trial < 20; trial++ {
			for j := range codes {
				codes[j] = uint8(rng.Intn(256))
				w[j] = int16(rng.Intn(1<<16) - (1 << 15))
			}
			want := codeDotRef(codes, w)
			if got := CodeDot(codes, w); got != want {
				t.Fatalf("CodeDot(n=%d) = %d, want %d", n, got, want)
			}
		}
	}
}

// TestCodeDotOverflowStress drives every element to its extreme magnitude
// across multiple kernel chunks: the SIMD lane accumulators must not wrap.
func TestCodeDotOverflowStress(t *testing.T) {
	for _, n := range []int{codeChunk, 2*codeChunk + 7} {
		codes := make([]uint8, n)
		w := make([]int16, n)
		for _, wv := range []int16{math.MinInt16, math.MaxInt16} {
			for j := range codes {
				codes[j] = 255
				w[j] = wv
			}
			want := int64(n) * 255 * int64(wv)
			if got := CodeDot(codes, w); got != want {
				t.Fatalf("CodeDot(n=%d, w=%d) = %d, want %d", n, wv, got, want)
			}
		}
	}
}

func TestCodeDotPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CodeDot(make([]uint8, 3), make([]int16, 4))
}

func TestCodeSelectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(40)
		m := rng.Intn(30)
		codes := make([]uint8, m*d)
		w := make([]int16, d)
		for j := range codes {
			codes[j] = uint8(rng.Intn(256))
		}
		for j := range w {
			w[j] = int16(rng.Intn(2001) - 1000)
		}
		base := rng.NormFloat64() * 10
		invS := rng.Float64() / 100
		eps := rng.Float64()
		lambda := rng.NormFloat64() * 5

		var want []int32
		for i := 0; i < m; i++ {
			s := codeDotRef(codes[i*d:(i+1)*d], w)
			if math.Abs(base+float64(s)*invS)-eps <= lambda {
				want = append(want, int32(i))
			}
		}
		got := CodeSelect(codes, d, w, base, invS, eps, lambda, nil)
		if len(got) != len(want) {
			t.Fatalf("CodeSelect kept %d rows, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("CodeSelect[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
}

func benchCodes(m, d int) ([]uint8, []int16) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint8, m*d)
	w := make([]int16, d)
	for j := range codes {
		codes[j] = uint8(rng.Intn(256))
	}
	for j := range w {
		w[j] = int16(rng.Intn(1<<16) - (1 << 15))
	}
	return codes, w
}

func BenchmarkCodeDot129(b *testing.B) {
	codes, w := benchCodes(1, 129)
	b.SetBytes(129)
	for i := 0; i < b.N; i++ {
		sinkInt64 = CodeDot(codes, w)
	}
}

func BenchmarkCodeSelect100x129(b *testing.B) {
	codes, w := benchCodes(100, 129)
	sel := make([]int32, 0, 100)
	b.SetBytes(100 * 129)
	for i := 0; i < b.N; i++ {
		sel = CodeSelect(codes, 129, w, 0.5, 1e-4, 0.25, 0.75, sel[:0])
	}
	sinkInt = len(sel)
}

var sinkInt64 int64
