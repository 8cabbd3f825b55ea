package vec

// This file holds the multi-query kernels behind the batched traversal mode
// (internal/exec): where DotBlock amortizes call overhead over one leaf's
// rows for a single query, DotBlockMulti amortizes the *row loads* over a
// whole group of queries. A leaf block streams from memory once per batch
// instead of once per query, and inside the register-blocked inner loop each
// loaded row element feeds two independent query accumulation chains — the
// memory behavior that dominates tree-based search (the prefetcher streams
// rows; the packed queries stay cache-resident).

// DotBlockMulti computes, for nq packed queries and m packed rows,
//
//	out[r*nq + qi] = <qs[qi*d:(qi+1)*d], rows[r*d:(r+1)*d]>
//
// with d = len(qs)/nq and m = len(rows)/d; len(out) must be m*nq. The output
// is row-major by data row so one row's products for every query are
// adjacent, matching the scan order of the batched leaf verification.
//
// Each (query, row) product follows exactly Dot's accumulation order, so a
// batched result is bitwise identical to the per-query Dot/DotBlock call it
// replaces — callers compare distances across code paths with plain ==.
func DotBlockMulti(qs []float32, nq int, rows []float32, out []float64) {
	if nq <= 0 || len(qs)%nq != 0 {
		panic("vec: DotBlockMulti query shape mismatch")
	}
	d := len(qs) / nq
	if d == 0 || len(rows)%d != 0 || len(out)*d != len(rows)*nq {
		panic("vec: DotBlockMulti shape mismatch")
	}
	m := len(rows) / d
	for r := 0; r < m; r++ {
		row := rows[r*d : r*d+d : r*d+d]
		o := out[r*nq : r*nq+nq : r*nq+nq]
		qi := 0
		// Two queries per pass: every loaded row element serves both
		// accumulation chains, halving row traffic per product. Four
		// accumulators per query replicate Dot's chain order exactly.
		for ; qi+2 <= nq; qi += 2 {
			a := qs[qi*d : qi*d+d : qi*d+d]
			b := qs[qi*d+d : qi*d+2*d : qi*d+2*d]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			j := 0
			for ; j+4 <= d; j += 4 {
				r0, r1, r2, r3 := float64(row[j]), float64(row[j+1]), float64(row[j+2]), float64(row[j+3])
				a0 += float64(a[j]) * r0
				a1 += float64(a[j+1]) * r1
				a2 += float64(a[j+2]) * r2
				a3 += float64(a[j+3]) * r3
				b0 += float64(b[j]) * r0
				b1 += float64(b[j+1]) * r1
				b2 += float64(b[j+2]) * r2
				b3 += float64(b[j+3]) * r3
			}
			for ; j < d; j++ {
				rj := float64(row[j])
				a0 += float64(a[j]) * rj
				b0 += float64(b[j]) * rj
			}
			o[qi] = a0 + a1 + a2 + a3
			o[qi+1] = b0 + b1 + b2 + b3
		}
		if qi < nq {
			o[qi] = Dot(qs[qi*d:qi*d+d], row)
		}
	}
}

// Widen converts src into the float64 buffer dst, which must have the same
// length. The conversion is exact, so kernels running over widened operands
// return bitwise-identical results to the float32 paths while their inner
// loops shed every per-element conversion — the dominant cost of the scalar
// kernels once data is cache-resident. The batched traversal widens each
// query once per batch and each leaf block once per visit, amortizing the
// conversions over the whole active group.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("vec: Widen length mismatch")
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// Dot64 returns the inner product of the widened vectors a and b with
// exactly Dot's accumulation order, so Dot64 over Widen-ed operands is
// bitwise identical to Dot over the originals.
func Dot64(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vec: Dot64 length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// DotBlockMultiIdx is the widened, gather-free multi-query kernel the
// batched leaf verification runs on: q64 holds every query of the batch
// widened and packed (query qi at q64[qi*d:(qi+1)*d]), act selects the
// active queries, and limits — aligned with act and non-increasing — caps
// how many leading rows each query needs (its point-level pruning prefix).
// It computes
//
//	out[r*len(act) + j] = <q64[act[j]], rows[r*d:(r+1)*d]>
//
// for every row r < limits[j], with exactly Dot's accumulation order per
// product (widening is exact, so results are bitwise identical to the
// float32 scalar path). Entries with r >= limits[j] are left untouched.
//
// Each row is widened once into row64 (a caller scratch of at least d
// entries) during the first query pair's pass, so the remaining pairs run a
// conversion-free float64 inner loop — the conversions that dominate the
// scalar kernels are paid once per row per batch instead of once per row
// per query. Because limits is non-increasing, the active prefix of act
// only shrinks as r grows; rows past every limit cost nothing.
func DotBlockMultiIdx(q64 []float64, d int, act, limits []int32, rows []float32, row64 []float64, out []float64) {
	if d <= 0 || len(rows)%d != 0 || len(row64) < d {
		panic("vec: DotBlockMultiIdx shape mismatch")
	}
	m := len(rows) / d
	nact := len(act)
	if len(limits) != nact || len(out) != m*nact {
		panic("vec: DotBlockMultiIdx output mismatch")
	}
	row64 = row64[:d:d]
	nj := nact
	for r := 0; r < m; r++ {
		for nj > 0 && int(limits[nj-1]) <= r {
			nj--
		}
		if nj == 0 {
			return
		}
		rowf := rows[r*d : r*d+d : r*d+d]
		o := out[r*nact : r*nact+nact : r*nact+nact]
		if nj == 1 {
			// One consumer left: widen inline, skip the row64 store.
			qa := q64[int(act[0])*d : (int(act[0])+1)*d : (int(act[0])+1)*d]
			var s0, s1, s2, s3 float64
			i := 0
			for ; i+4 <= d; i += 4 {
				s0 += qa[i] * float64(rowf[i])
				s1 += qa[i+1] * float64(rowf[i+1])
				s2 += qa[i+2] * float64(rowf[i+2])
				s3 += qa[i+3] * float64(rowf[i+3])
			}
			for ; i < d; i++ {
				s0 += qa[i] * float64(rowf[i])
			}
			o[0] = s0 + s1 + s2 + s3
			continue
		}
		// First pair widens the row as it computes; the stores land in the
		// L1-resident row64 the remaining pairs then read conversion-free.
		{
			qa := q64[int(act[0])*d : (int(act[0])+1)*d : (int(act[0])+1)*d]
			qb := q64[int(act[1])*d : (int(act[1])+1)*d : (int(act[1])+1)*d]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			i := 0
			for ; i+4 <= d; i += 4 {
				r0, r1, r2, r3 := float64(rowf[i]), float64(rowf[i+1]), float64(rowf[i+2]), float64(rowf[i+3])
				row64[i], row64[i+1], row64[i+2], row64[i+3] = r0, r1, r2, r3
				a0 += qa[i] * r0
				a1 += qa[i+1] * r1
				a2 += qa[i+2] * r2
				a3 += qa[i+3] * r3
				b0 += qb[i] * r0
				b1 += qb[i+1] * r1
				b2 += qb[i+2] * r2
				b3 += qb[i+3] * r3
			}
			for ; i < d; i++ {
				ri := float64(rowf[i])
				row64[i] = ri
				a0 += qa[i] * ri
				b0 += qb[i] * ri
			}
			o[0] = a0 + a1 + a2 + a3
			o[1] = b0 + b1 + b2 + b3
		}
		j := 2
		for ; j+2 <= nj; j += 2 {
			qa := q64[int(act[j])*d : (int(act[j])+1)*d : (int(act[j])+1)*d]
			qb := q64[int(act[j+1])*d : (int(act[j+1])+1)*d : (int(act[j+1])+1)*d]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			i := 0
			for ; i+4 <= d; i += 4 {
				r0, r1, r2, r3 := row64[i], row64[i+1], row64[i+2], row64[i+3]
				a0 += qa[i] * r0
				a1 += qa[i+1] * r1
				a2 += qa[i+2] * r2
				a3 += qa[i+3] * r3
				b0 += qb[i] * r0
				b1 += qb[i+1] * r1
				b2 += qb[i+2] * r2
				b3 += qb[i+3] * r3
			}
			for ; i < d; i++ {
				ri := row64[i]
				a0 += qa[i] * ri
				b0 += qb[i] * ri
			}
			o[j] = a0 + a1 + a2 + a3
			o[j+1] = b0 + b1 + b2 + b3
		}
		if j < nj {
			o[j] = Dot64(q64[int(act[j])*d:(int(act[j])+1)*d], row64)
		}
	}
}
