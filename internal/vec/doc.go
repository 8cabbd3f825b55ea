// Package vec provides the dense vector and matrix kernels used by every
// index in this repository.
//
// Vectors are stored as []float32, the storage format common to similarity
// search systems, while every accumulation runs in float64 so that the
// geometric bounds built on top of these kernels are stable enough to prune
// safely (see internal/balltree).
//
// The kernel families that live here:
//
//   - Reference float kernels in Go (Dot, SqDist, Norm) and DotBlock, Dot's
//     blocked form, which processes a packed row block — a leaf's at search
//     time — in one call. A blocked result is bitwise identical to the
//     per-row call it replaces, which is what lets different traversal
//     strategies compare distances with plain ==.
//
//   - AVX2+FMA assembly for those float kernels (float_amd64.s): Dot, a
//     four-row DotBlock pass that shares each converted group of query
//     elements, a two-row by four-query tile for groups of queries (below),
//     and CentroidBlock's row sums. It is selected once at init when CPUID
//     and XGETBV report AVX2, FMA and OS-saved YMM state; every other host,
//     every other architecture, and the purego build tag run the Go
//     reference. Kernel reports which. The assembly is bitwise identical to
//     the reference, not approximately equal: a product of two float32
//     values is exact in float64, so a fused multiply-add rounds exactly as
//     multiply-then-add; lane k of a 4 x float64 accumulator is Dot's chain
//     s_k, tail elements fold into lane 0, and the lanes are summed
//     ((s0+s1)+s2)+s3 as the reference does. A centroid's sum is one chain
//     per coordinate in row order; its kernel keeps four coordinates' chains
//     in a YMM register and adds four rows per load and store of them.
//     Squared distances have no float64 kernel: the float32 screen below
//     settles most rows, and the scalar SqDist recomputes the rest.
//
//   - The float32 screen (screen.go): SqDistBlock32 and the inner-product
//     screens, four rows per pass or a 2 x 4 tile, sum in float32 at eight
//     lanes a register, with AVX2 assembly and a Go reference that need not
//     agree bit for bit. FarthestBlock (under MaxDistBlock), SqDistLE,
//     DotBlockWithin and Queries.DotBlockWithin use them in front of the
//     float64 kernels: a rounding bound that holds for any summation order
//     settles most rows, and only the rest are computed in float64, so every
//     value and every decision a caller keeps is still the float64 kernel's.
//
//   - The multi-query kernel (multi.go): Queries holds a batch's packed
//     queries and Queries.DotBlock multiplies any list of them into a row
//     block; DotBlockMulti is that over all of a packed group. Where the
//     assembly runs, whole groups of TileQueries = 4 listed queries go
//     through the tile: eight accumulators, each converted group of row
//     elements feeding four products, the queries read as float64 —
//     widened once per batch by Queries.Reset, which is exact — so a
//     product costs 1.25 convert/FMA operations where a DotBlock pass per
//     query costs 2.25. Every accumulator keeps Dot's contract: lane k is
//     chain s_k, the sum is ((s0+s1)+s2)+s3, and a tail element enters
//     lane 0 through a full-width FMA whose other lanes add +0 * +0 —
//     harmless because a chain that starts at +0 never holds -0. What is
//     left of the list, and everything on the Go path, is a loop over
//     DotBlock: there is one assembly body and one portable body.
//
//   - Bound kernels (BallCutoff, ConeSelect) that evaluate the paper's
//     point-level pruning bounds over position-ordered leaf arrays, the
//     16-bit codec of the cone pair those arrays hold (ConeGrid: a leaf's
//     grids, fixed by its radius, centre norm and dimension; every grid value
//     exact), and the derivation of the point-level ball radius from a coded
//     pair (ConeGrid.Radius, ConeGrid.SqRadius).
//
//   - Integer code kernels (CodeDot, CodeSelect): uint8 codes times int16
//     weights accumulated exactly in int64. On amd64 an SSE2 assembly kernel
//     (code_amd64.s) processes 16 codes per iteration via PMADDWD; everywhere
//     else — and under the purego build tag — a portable 4-wide Go loop
//     produces the same exact integer results. No index runs them; they stay
//     for the benchmark's vec.codeselect_ns_row probe, and go with it.
//
// The reference's rounding is pinned in the source. The Go spec lets a
// compiler fuse x*y + z into one rounding, and on arm64, ppc64le, s390x and
// riscv64 it does (go1.24 emits FMADDD for SqDist's s += d*d on arm64; it
// does not fuse on amd64 at any GOAMD64 level, but nothing in the spec stops
// a later release). Dot and SqNorm are indifferent (their products are
// exact), but SqDist is not, so it writes s += float64(d*d): an explicit
// conversion is a rounding point the compiler must honour. That is what
// makes "bitwise identical to the reference" — and with it radii and the
// golden container bytes — a statement about every platform rather than
// about amd64. ConeGrid.SqRadius, which a leaf's stored order is defined on,
// pins its two squares the same way, and NewConeGrid the one product in a
// grid's derivation that is not exact.
//
// All pruning kernels share one contract: a candidate is skipped only when
// its lower bound strictly exceeds the current k-th best distance, so ties
// always reach the collector's canonical (Dist, ID) ordering and every
// traversal order yields identical exact results.
package vec
