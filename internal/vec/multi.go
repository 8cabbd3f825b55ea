package vec

// DotBlockMulti computes, for nq packed queries and m packed rows,
//
//	out[r*nq + qi] = <qs[qi*d:(qi+1)*d], rows[r*d:(r+1)*d]>
//
// with d = len(qs)/nq and m = len(rows)/d; len(out) must be m*nq. The output
// is row-major by data row, so one row's products for every query are
// adjacent.
//
// It is a loop over DotBlock's row-block kernel: four rows stay in cache
// while every query passes over them, so the block streams from memory once
// for the whole group. Each product is bitwise identical to Dot.
func DotBlockMulti(qs []float32, nq int, rows []float32, out []float64) {
	if nq <= 0 || len(qs)%nq != 0 {
		panic("vec: DotBlockMulti query shape mismatch")
	}
	d := len(qs) / nq
	if d == 0 || len(rows)%d != 0 || len(out)*d != len(rows)*nq {
		panic("vec: DotBlockMulti shape mismatch")
	}
	m := len(rows) / d
	var o [4]float64
	for r := 0; r < m; r += len(o) {
		n := min(len(o), m-r)
		block := rows[r*d : (r+n)*d]
		for qi := 0; qi < nq; qi++ {
			DotBlock(qs[qi*d:(qi+1)*d], block, o[:n])
			for k, v := range o[:n] {
				out[(r+k)*nq+qi] = v
			}
		}
	}
}
