//go:build amd64 && !purego

package vec

// useAVX2 selects the assembly float kernels. It is set once, at init, from
// what the CPU and the OS report; the purego build tag is the only way off.
// Tests flip it to run both implementations in one process.
var useAVX2 = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the OS saves
// the YMM state across context switches.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// Kernel names the float kernel implementation in use: "avx2" or "go".
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

func dotArch(a, b []float32) float64 {
	if !useAVX2 || len(a) == 0 {
		return dotGo(a, b)
	}
	return dotAVX2(&a[0], &b[0], len(a))
}

// dotBlockArch runs the four-row kernel over the block. When the row count
// is not a multiple of four the last pass starts early and recomputes up to
// three rows to the same bits, which saves a remainder kernel; blocks of
// fewer than four rows go row by row.
func dotBlockArch(q, rows []float32, out []float64) {
	d, m := len(q), len(out)
	if !useAVX2 || d == 0 {
		dotBlockGo(q, rows, out)
		return
	}
	if m < 4 {
		for i := range out {
			out[i] = dotAVX2(&q[0], &rows[i*d], d)
		}
		return
	}
	for i := 0; i < m; i += 4 {
		i = min(i, m-4)
		dotBlock4AVX2(&q[0], &rows[i*d], d, &out[i])
	}
}

// sqDistBlock32Arch runs the four-row float32 kernel over the block, the last
// pass starting early as in dotBlockArch; blocks of fewer than four rows
// take the reference.
func sqDistBlock32Arch(q, rows []float32, out []float32) {
	d, m := len(q), len(out)
	if !useAVX2 || d == 0 || m < 4 {
		sqDistBlock32Go(q, rows, out)
		return
	}
	for i := 0; i < m; i += 4 {
		i = min(i, m-4)
		sqDist4F32AVX2(&q[0], &rows[i*d], d, &out[i])
	}
}

// dotBlock32Arch is sqDistBlock32Arch for the inner-product screen.
func dotBlock32Arch(q, rows []float32, ip, sqn []float32) {
	d, m := len(q), len(ip)
	if !useAVX2 || d == 0 || m < 4 {
		dotBlock32Go(q, rows, ip, sqn)
		return
	}
	for i := 0; i < m; i += 4 {
		i = min(i, m-4)
		dot4F32AVX2(&q[0], &rows[i*d], d, &ip[i], &sqn[i])
	}
}

// dotTile32 computes the screened products of the rows with the TileQueries
// listed queries through the float32 2 x 4 tile: ip[r*TileQueries + k] for
// row r and query qi[k], sqn[r] for row r. An odd row count ends with one pass over the last two
// rows, as dotBlockTiled does; a single row takes the reference.
func (b *Queries) dotTile32(qi []int32, rows []float32, ip, sqn []float32) {
	d := b.d
	m := len(rows) / d
	if !useAVX2 || m < 2 {
		b.dotTile32Go(qi, rows, ip, sqn)
		return
	}
	var q [TileQueries]*float32
	for c := range q {
		q[c] = &b.qs[int(qi[c])*d]
	}
	dotTile2x4F32AVX2(&rows[0], m/2, d, q[0], q[1], q[2], q[3], &ip[0], &sqn[0])
	if m%2 != 0 {
		dotTile2x4F32AVX2(&rows[(m-2)*d], 1, d, q[0], q[1], q[2], q[3], &ip[(m-2)*TileQueries], &sqn[m-2])
	}
}

// addRowsArch adds the leading whole groups of four rows of the packed block
// into acc (one float64 per coordinate) and returns how many of rows' floats
// it covered; the caller adds the rest, in order.
func addRowsArch(acc []float64, rows []float32) int {
	d := len(acc)
	g := len(rows) / (4 * d)
	if !useAVX2 || g == 0 {
		return 0
	}
	addRows4AVX2(&acc[0], &rows[0], d, g)
	return g * 4 * d
}

// widen fills b.wide for the tile; the Go path reads b.qs alone.
func (b *Queries) widen() {
	if !useAVX2 {
		return
	}
	if cap(b.wide) < len(b.qs) {
		b.wide = make([]float64, len(b.qs))
	}
	b.wide = b.wide[:len(b.qs)]
	for i, v := range b.qs {
		b.wide[i] = float64(v)
	}
}

// dotBlockTiled runs the 2 x 4 tile over every whole group of TileQueries
// listed queries and returns how many columns of out it filled. An odd row
// count ends with one pass over the last two rows, which recomputes a row to
// the same bits, as dotBlockArch does; a single row is left to the caller.
func (b *Queries) dotBlockTiled(qi []int32, rows []float32, out []float64) int {
	d, g := b.d, len(qi)
	m := len(rows) / d
	if !useAVX2 || m < 2 {
		return 0
	}
	k := 0
	for ; k+TileQueries <= g; k += TileQueries {
		var q [TileQueries]*float64
		for c := range q {
			i := int(qi[k+c])
			q[c] = &b.wide[i*d : (i+1)*d][0]
		}
		dotTile2x4AVX2(&rows[0], m/2, d, q[0], q[1], q[2], q[3], &out[k], g)
		if m%2 != 0 {
			dotTile2x4AVX2(&rows[(m-2)*d], 1, d, q[0], q[1], q[2], q[3], &out[(m-2)*g+k], g)
		}
	}
	return k
}

//go:noescape
func dotAVX2(a, b *float32, n int) float64

//go:noescape
func dotTile2x4AVX2(rows *float32, pairs, d int, q0, q1, q2, q3 *float64, out *float64, stride int)

//go:noescape
func dotBlock4AVX2(q, rows *float32, d int, out *float64)

//go:noescape
func addRows4AVX2(acc *float64, rows *float32, d, groups int)

//go:noescape
func sqDist4F32AVX2(q, rows *float32, d int, out *float32)

//go:noescape
func dot4F32AVX2(q, rows *float32, d int, ip, sqn *float32)

//go:noescape
func dotTile2x4F32AVX2(rows *float32, pairs, d int, q0, q1, q2, q3 *float32, ip, sqn *float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
