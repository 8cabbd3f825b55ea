// Package vec provides the dense vector and matrix kernels used by every
// index in this repository.
//
// Vectors are stored as []float32, the storage format common to similarity
// search systems, while every accumulation runs in float64 so that the
// geometric bounds built on top of these kernels are stable enough to prune
// safely (see internal/balltree).
//
// Three kernel families live here:
//
//   - Scalar float kernels (Dot, SqDist, Norm) and their blocked forms
//     (DotBlock, SqDistBlock), which process a leaf's packed row block in one
//     call. A blocked result is bitwise identical to the per-row call it
//     replaces, which is what lets different traversal strategies compare
//     distances with plain ==.
//
//   - Bound kernels (BallCutoff, ConeSelect) that evaluate the paper's
//     point-level pruning bounds over position-ordered leaf arrays.
//
//   - Integer code kernels (CodeDot, CodeSelect, CodeSelectIdx) behind the
//     quantized leaf scan: uint8 codes times int16 weights accumulated
//     exactly in int64. On amd64 an SSE2 assembly kernel (code_amd64.s)
//     processes 16 codes per iteration via PMADDWD; everywhere else — and
//     under the purego build tag — a portable 4-wide Go loop produces the
//     same exact integer results.
//
// All pruning kernels share one contract: a candidate is skipped only when
// its lower bound strictly exceeds the current k-th best distance, so ties
// always reach the collector's canonical (Dist, ID) ordering and every
// traversal order yields identical exact results.
package vec
