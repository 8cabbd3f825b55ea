package vec

import "math"

// This file holds the float32 screen: the passes that compute a float64
// value for every row of a block but keep only an argmax, a comparison, or
// the few rows under a threshold first compute every value in float32 —
// eight lanes a register and no conversion, at about twice the rows per
// second — and recompute in float64 only the rows a proven rounding bound
// cannot settle. Every value a caller keeps, and every decision it acts on,
// still comes from the float64 kernels (SqDist, Dot and their blocked forms),
// so what the screen changes is only how many rows those kernels see.
//
// The bounds hold for any summation order, with or without fused
// multiply-adds, so the assembly and the Go reference may round differently
// and each is still sound. For a d-element row, u = 2^-24 and
// γ_k = k·u/(1-k·u):
//
//   - a screened squared distance s of finite value is within e·s + a of the
//     float64 SqDist, e = γ_{d+6} and a = d·2^-148: a term sees two roundings
//     in its difference, one in its square and at most d-1 in the sum,
//     γ_{d+2} of the exact value, the float64 kernel adds γ_{d+2} in 2^-53,
//     and every float32 result that underflows is off by at most 2^-150;
//   - a screened inner product p is within e·‖q‖·‖x‖ + a of the float64 Dot,
//     with ‖x‖² taken from the screened squared norm n as (n + a)·(1 + e):
//     the product's error is γ_d·Σ|q_j·x_j| ≤ γ_d·‖q‖·‖x‖ plus underflow,
//     whatever the order.
//
// Both carry some units of u and a factor of two in a more than the
// derivation needs; that margin absorbs the float64 arithmetic that applies
// them. A screened value is trusted only where no float32 operation could
// have overflowed: a squared distance only when it is finite (its terms are
// non-negative, so an overflow anywhere leaves +Inf or NaN), a block of inner
// products only when ‖q‖·‖x‖ for its largest row stays below screenLimit,
// which bounds every partial sum. Anything else goes to the float64 kernel.

// screenLimit caps ‖q‖·‖x‖ for a screened block of inner products: every
// product and every partial sum stays below it, a factor of eight clear of
// the float32 range.
const screenLimit = math.MaxFloat32 / 8

// screenSlack returns e and a of the screens' bounds for rows of d floats.
func screenSlack(d int) (e, a float64) {
	k := float64(d+6) * 0x1p-24
	return k / (1 - k), float64(d) * 0x1p-148
}

// screenable reports whether rows of d floats take the screen at all: γ_{d+6}
// must stay a small relative bound.
func screenable(d int) bool { return d > 0 && d+6 < 1<<20 }

// SqDistBlock32 computes out[i] ≈ ||q - rows[i*d:(i+1)*d]||² in float32 for
// every row of the packed block, in no specified order: the screened value
// the float32 screen reasons about, within the bound above of SqDist(q, row)
// whenever it is finite. len(rows) must be len(out)*len(q).
func SqDistBlock32(q, rows []float32, out []float32) {
	if len(rows) != len(out)*len(q) {
		panic("vec: SqDistBlock32 shape mismatch")
	}
	sqDistBlock32Arch(q, rows, out)
}

// sqDistBlock32Go is SqDistBlock32's reference.
func sqDistBlock32Go(q, rows []float32, out []float32) {
	d := len(q)
	for i := range out {
		x := rows[i*d : (i+1)*d : (i+1)*d]
		var s0, s1 float32
		j := 0
		for ; j+2 <= d; j += 2 {
			t0, t1 := q[j]-x[j], q[j+1]-x[j+1]
			s0 += t0 * t0
			s1 += t1 * t1
		}
		if j < d {
			t := q[j] - x[j]
			s0 += t * t
		}
		out[i] = s0 + s1
	}
}

// dotBlock32Go is the reference of the inner-product screen: ip[i] ≈ <q,
// row i> and sqn[i] ≈ ||row i||², both in float32.
func dotBlock32Go(q, rows []float32, ip, sqn []float32) {
	d := len(q)
	for i := range ip {
		x := rows[i*d : (i+1)*d : (i+1)*d]
		var p0, p1, n0, n1 float32
		j := 0
		for ; j+2 <= d; j += 2 {
			p0 += q[j] * x[j]
			p1 += q[j+1] * x[j+1]
			n0 += x[j] * x[j]
			n1 += x[j+1] * x[j+1]
		}
		if j < d {
			p0 += q[j] * x[j]
			n0 += x[j] * x[j]
		}
		ip[i], sqn[i] = p0+p1, n0+n1
	}
}

// distBounds returns the interval the float64 SqDist lies in given the
// screened value s, and whether s is finite (if not, the interval is
// (-Inf, +Inf)).
func distBounds(s float32, e, a float64) (lo, hi float64, ok bool) {
	if !(s <= math.MaxFloat32) {
		return math.Inf(-1), math.Inf(1), false
	}
	v := float64(s)
	return v - (e*v + a), v + (e*v + a), true
}

// screenChunk is how many rows a screened pass holds on the stack at once.
const screenChunk = 128

// FarthestBlock returns the first row of the packed block rows (dimension
// len(from)) whose squared distance from `from`, as SqDist computes it, is
// the greatest and exceeds floor, with that distance; pos is -1, and sq is
// floor, when no row's exceeds floor. It screens every row into s32 (one
// float32 per row, SqDistBlock32's values, left there for the caller) and
// computes SqDist only for the rows whose interval reaches the largest lower
// bound of any row, or floor: every other row is proven below a row that is
// recomputed. A NaN distance never exceeds floor, as in MaxDistBlock.
func FarthestBlock(from, rows []float32, floor float64, s32 []float32) (pos int, sq float64) {
	d := len(from)
	if len(rows) != len(s32)*d {
		panic("vec: FarthestBlock shape mismatch")
	}
	pos, sq = -1, floor
	if !screenable(d) {
		for i := range s32 {
			if v := SqDist(from, rows[i*d:(i+1)*d]); v > sq {
				pos, sq = i, v
			}
		}
		return pos, sq
	}
	sqDistBlock32Arch(from, rows, s32)
	e, a := screenSlack(d)
	reach := floor // the largest proven lower bound
	for _, s := range s32 {
		if lo, _, ok := distBounds(s, e, a); ok && lo > reach {
			reach = lo
		}
	}
	for i, s := range s32 {
		if _, hi, _ := distBounds(s, e, a); hi < reach {
			continue
		}
		if v := SqDist(from, rows[i*d:(i+1)*d]); v > sq {
			pos, sq = i, v
		}
	}
	return pos, sq
}

// SqDistLE reports whether SqDist(a, x) <= SqDist(b, x), given sa and sb,
// the screened squared distances SqDistBlock32 gives for the pair: from the
// screened values when their intervals settle it, else from the two float64
// distances.
func SqDistLE(a, b, x []float32, sa, sb float32) bool {
	if d := len(x); screenable(d) {
		e, abs := screenSlack(d)
		loA, hiA, okA := distBounds(sa, e, abs)
		loB, hiB, okB := distBounds(sb, e, abs)
		switch {
		case okA && okB && hiA <= loB:
			return true
		case okA && okB && loA > hiB:
			return false
		}
	}
	return SqDist(a, x) <= SqDist(b, x)
}

// dotThreshold returns the screened magnitude above which a row's float64
// |<q, x>| is proven to exceed lambda, for a block whose largest screened
// squared norm is maxSqn, against a query of norm qnorm; ok is false when the
// block must go to the float64 kernel (lambda not finite, or the block
// outside the range the bound covers).
func dotThreshold(d int, qnorm, lambda float64, maxSqn float32) (thr float64, ok bool) {
	if !(lambda < math.Inf(1)) {
		return 0, false
	}
	e, a := screenSlack(d)
	xnorm := math.Sqrt((float64(maxSqn) + a) * (1 + e))
	if !(qnorm*xnorm <= screenLimit) {
		return 0, false
	}
	// The last factor covers the rounding of the sum itself.
	return (lambda + e*qnorm*xnorm + a) * (1 + 0x1p-50), true
}

// DotBlockWithin is DotBlock for a caller that keeps only products of
// magnitude at most lambda. It appends to kept the positions of the rows
// whose |<q, row>| may be at most lambda and returns it; out[i] is
// DotBlock's value, bit for bit, for every position i it lists, and is left
// as it was for the others, each of which the float32 screen proves beyond
// lambda (|<q, row>| > lambda, strictly). qnorm is Norm(q). A lambda that is
// not finite screens nothing, and neither does a block the bound does not
// cover or in which more than a quarter of the rows survive: such a block
// runs DotBlock whole and lists every row.
func DotBlockWithin(q []float32, qnorm, lambda float64, rows []float32, out []float64, kept []int32) []int32 {
	d, m := len(q), len(out)
	if len(rows) != m*d {
		panic("vec: DotBlockWithin shape mismatch")
	}
	if !(lambda < math.Inf(1)) || !screenable(d) || m < 4 {
		dotBlockArch(q, rows, out)
		return appendRange(kept, 0, m)
	}
	var ip, sqn [screenChunk]float32
	var thr [1]float64
	for lo := 0; lo < m; lo += screenChunk {
		hi := min(lo+screenChunk, m)
		block := rows[lo*d : hi*d]
		p, n := ip[:hi-lo], sqn[:hi-lo]
		dotBlock32Arch(q, block, p, n)
		var ok bool
		thr[0], ok = dotThreshold(d, qnorm, lambda, maxSqNorm(n))
		at := len(kept)
		if ok {
			kept = screenOut(p, thr[:], lo, kept)
		}
		if !ok || 4*(len(kept)-at) > len(p) {
			dotBlockArch(q, block, out[lo:hi])
			kept = appendRange(kept[:at], lo, hi)
			continue
		}
		for _, i := range kept[at:] {
			out[i] = dotArch(q, rows[int(i)*d:(int(i)+1)*d])
		}
	}
	return kept
}

// screenOut appends to kept base+i for every screened product p[i] whose
// magnitude does not exceed its column's threshold, p being laid out
// row-major with one column per threshold: the products left to float64.
// dotThreshold admitted the block, so every product is finite, and the
// comparison runs on the bits of |p[i]| against the threshold rounded up to
// a float32 — for non-negative floats the order of the bits is the order of
// the values.
func screenOut(p []float32, thr []float64, base int, kept []int32) []int32 {
	var lim [TileQueries]uint32
	g := len(thr)
	for k, t := range thr {
		t32 := float32(t)
		if float64(t32) < t {
			t32 = math.Nextafter32(t32, float32(math.Inf(1)))
		}
		lim[k] = math.Float32bits(t32)
	}
	for i := 0; i < len(p); i += g {
		for k := range g {
			if math.Float32bits(p[i+k])&^(1<<31) <= lim[k] {
				kept = append(kept, int32(base+i+k))
			}
		}
	}
	return kept
}

// appendRange appends lo, lo+1, ..., hi-1 to kept.
func appendRange(kept []int32, lo, hi int) []int32 {
	for i := lo; i < hi; i++ {
		kept = append(kept, int32(i))
	}
	return kept
}

// maxSqNorm returns the largest of the screened squared norms s, or a NaN
// among them.
func maxSqNorm(s []float32) float32 {
	m := float32(0)
	for _, v := range s {
		if v > m {
			m = v
		} else if v != v {
			return v
		}
	}
	return m
}
