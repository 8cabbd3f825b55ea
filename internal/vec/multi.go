package vec

// TileQueries is how many queries the multi-query tile keeps in flight.
// Callers that group queries (the trees' batched leaf scan, the batched
// linear scan) group them by it; any other count is served, the remainder one
// query at a time through DotBlock.
const TileQueries = 4

// multiBlockRows is how many rows DotBlockMulti hands the tile at a time: a
// block every query group passes over while it sits in L2 (128 KiB at d = 128).
const multiBlockRows = 256

// Queries is a packed group of queries prepared for the multi-query kernel.
// The assembly tile reads queries widened to float64 — an exact conversion,
// made once per group instead of once per row pass — so Reset keeps a widened
// copy beside the caller's rows when that kernel is selected; the Go path
// reads the rows themselves. A zero value is ready for Reset; the widened storage is
// retained across Resets, so a pooled Queries reaches a steady state without
// allocation.
type Queries struct {
	qs   []float32 // the caller's packed rows, not copied
	wide []float64 // qs as float64, filled only for the assembly tile
	d    int
}

// Reset points b at the packed queries qs of d floats each. Reset(nil, d)
// drops the reference to the caller's rows and keeps the storage.
func (b *Queries) Reset(qs []float32, d int) {
	if d <= 0 || len(qs)%d != 0 {
		panic("vec: Queries shape mismatch")
	}
	b.qs, b.d = qs, d
	b.widen()
}

// DotBlock computes, for the queries whose indices qi lists and the m packed
// rows,
//
//	out[r*len(qi) + k] = <query qi[k], rows[r*d:(r+1)*d]>
//
// with len(out) = m*len(qi): row-major by data row, so one row's products
// for the listed queries are adjacent. Whole groups of TileQueries queries
// go through the register tile, which converts each group of row elements
// once for all of them; what is left goes query by query through DotBlock.
// Each product is bitwise identical to Dot.
func (b *Queries) DotBlock(qi []int32, rows []float32, out []float64) {
	if len(rows)%b.d != 0 || len(out)*b.d != len(rows)*len(qi) {
		panic("vec: Queries.DotBlock shape mismatch")
	}
	b.dotBlockRest(qi, b.dotBlockTiled(qi, rows, out), rows, out)
}

// dotBlockRest fills the columns from k on, one query at a time: four rows
// stay in cache while every query passes over them.
func (b *Queries) dotBlockRest(qi []int32, k int, rows []float32, out []float64) {
	d, g := b.d, len(qi)
	if k == g {
		return
	}
	m := len(rows) / d
	var o [4]float64
	for r := 0; r < m; r += len(o) {
		n := min(len(o), m-r)
		block := rows[r*d : (r+n)*d]
		for c := k; c < g; c++ {
			q := int(qi[c])
			DotBlock(b.qs[q*d:(q+1)*d], block, o[:n])
			for i, v := range o[:n] {
				out[(r+i)*g+c] = v
			}
		}
	}
}

// DotBlockMulti computes, for nq packed queries and m packed rows,
//
//	out[r*nq + qi] = <qs[qi*d:(qi+1)*d], rows[r*d:(r+1)*d]>
//
// with d = len(qs)/nq and m = len(rows)/d; len(out) must be m*nq. It is
// Queries.DotBlock over every query, a block of rows at a time so that the
// block streams from memory once for the whole group. Callers that keep a
// group of queries across calls hold a Queries themselves and save the
// widening.
func DotBlockMulti(qs []float32, nq int, rows []float32, out []float64) {
	if nq <= 0 || len(qs)%nq != 0 {
		panic("vec: DotBlockMulti query shape mismatch")
	}
	d := len(qs) / nq
	if d == 0 || len(rows)%d != 0 || len(out)*d != len(rows)*nq {
		panic("vec: DotBlockMulti shape mismatch")
	}
	var b Queries
	b.Reset(qs, d)
	qi := make([]int32, nq)
	for i := range qi {
		qi[i] = int32(i)
	}
	for lo, m := 0, len(rows)/d; lo < m; lo += multiBlockRows {
		hi := min(lo+multiBlockRows, m)
		b.DotBlock(qi, rows[lo*d:hi*d], out[lo*nq:hi*nq])
	}
}
