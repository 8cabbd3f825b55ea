package vec

import "math"

// This file holds the integer code kernels: a block of uint8 codes is
// multiplied against a query's rounded int16 weights entirely in integer
// arithmetic, and the affine form base + dot*invS with its error bound eps
// decides which rows a filter would keep. No index runs them: the trees
// verify their leaves through the float32 screen (DotBlockWithin). They stay
// because the benchmark's vec.codeselect_ns_row probe times CodeSelect, and
// they go with that probe.

// codeChunk bounds the element count of one dispatch to the architecture
// kernel. The amd64 kernel accumulates in 32-bit lanes; with |w| <= 32768 and
// codes <= 255 a lane gains at most 2*32768*255 per 16-element iteration, so
// 2048 elements (128 iterations) stay below the int32 ceiling with margin.
const codeChunk = 2048

// CodeDot returns sum_j codes[j]*w[j] in exact int64 arithmetic. It panics if
// the slices have different lengths. The result is independent of the
// architecture kernel in use: integer addition is associative, so the SIMD
// lane split cannot change the sum.
func CodeDot(codes []uint8, w []int16) int64 {
	if len(codes) != len(w) {
		panic("vec: CodeDot length mismatch")
	}
	var s int64
	for len(codes) > codeChunk {
		s += codeDotArch(codes[:codeChunk], w[:codeChunk])
		codes, w = codes[codeChunk:], w[codeChunk:]
	}
	return s + codeDotArch(codes, w)
}

// codeKeep reports whether a row with integer code dot s survives the code
// filter: the provable floor |approx|-eps on the exact distance
// must not strictly exceed lambda. Pruning is strict so rows tied with the
// current k-th best reach the collector's canonical (Dist, ID) ordering, the
// same contract as BallCutoff and ConeSelect.
func codeKeep(s int64, base, invS, eps, lambda float64) bool {
	approx := base + float64(s)*invS
	return math.Abs(approx)-eps <= lambda
}

// CodeSelect runs the code filter over a packed row-major code block of row
// length d and appends the indices of the rows it cannot prune to sel,
// returning the extended slice. base, invS and eps are a query's affine form
// and its error bound; lambda is the current k-th best distance.
func CodeSelect(codes []uint8, d int, w []int16, base, invS, eps, lambda float64, sel []int32) []int32 {
	if d <= 0 || len(codes)%d != 0 {
		panic("vec: CodeSelect shape mismatch")
	}
	if len(w) != d {
		panic("vec: CodeSelect weight length mismatch")
	}
	m := len(codes) / d
	for i := 0; i < m; i++ {
		row := codes[i*d : i*d+d : i*d+d]
		if codeKeep(CodeDot(row, w), base, invS, eps, lambda) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}
