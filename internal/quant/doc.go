// Package quant provides per-dimension scalar quantization (8-bit codes)
// with a rigorous inner-product error bound, the fitted integer filter the
// trees run inside their leaf scans, and a filter-then-verify exhaustive
// scan built on the same machinery.
//
// The paper's Section III-A(4) argues Ball-Tree combines easily with other
// optimizations; this package is one such optimization made concrete: codes
// are 4x smaller than float32 vectors, the approximate inner product is
// computed directly on codes, and the error bound makes the filter exact —
// a point is only skipped when its approximate score provably cannot beat
// the current k-th best.
//
// The pieces compose in three layers:
//
//   - Quantizer fits one affine grid per dimension (lo_j + c*step_j,
//     c in 0..255) and records halfE_j, the per-dimension worst-case
//     reconstruction error. Encode/EncodeMatrix produce the code mirror;
//     Validate re-checks the halfE invariant against a concrete data/code
//     pair, which is how loaded containers refuse corrupted mirrors.
//
//   - CodeFilter (Fit/FitInto) turns a query into integer-filter
//     coefficients: int16 weights for vec.CodeDot plus a total error bound
//     Eps that accounts for quantization, weight rounding, and the float64
//     arithmetic of evaluating the bound itself. See DESIGN.md ("Quantized
//     leaf scan") for the full derivation.
//
//   - Scan is the exhaustive filter-then-verify baseline over a whole
//     matrix; internal/balltree runs the same filter per leaf block inside
//     tree traversal.
//
// Everything here preserves exactness: filters only ever skip rows whose
// bound proves they cannot enter the top-k, so exact search with
// quantization returns byte-identical results to the float-only paths.
package quant
