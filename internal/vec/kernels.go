package vec

import "math"

// This file holds the blocked kernels behind the flat tree layouts: instead
// of one O(d) call per candidate, a leaf hands its whole contiguous row block
// to a single kernel call. Accumulation still runs in float64 for bound
// stability; the win is several rows in flight behind each converted query
// element (four per pass in the assembly kernels, two in the Go references
// below), amortized call overhead, and strictly sequential reads over the
// packed leaf block, which is what the cache prefetcher rewards.

// DotBlock computes out[i] = <q, rows[i*d : (i+1)*d]> with d = len(q) for
// every row of the packed row-major block. len(rows) must be len(out)*len(q).
// Each row follows exactly Dot's accumulation order, so a blocked result is
// bitwise identical to the per-row Dot call it replaces — callers compare
// distances across code paths (e.g. tree vs. linear scan) with plain ==.
func DotBlock(q []float32, rows []float32, out []float64) {
	if len(rows) != len(out)*len(q) {
		panic("vec: DotBlock shape mismatch")
	}
	dotBlockArch(q, rows, out)
}

// dotBlockGo is DotBlock's reference.
func dotBlockGo(q []float32, rows []float32, out []float64) {
	d := len(q)
	i := 0
	// Two rows per pass: each loaded element of q serves two accumulation
	// chains, and the independent chains keep the FP units busy.
	for ; i+2 <= len(out); i += 2 {
		a := rows[i*d : i*d+d : i*d+d]
		b := rows[i*d+d : i*d+2*d : i*d+2*d]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		j := 0
		for ; j+4 <= d; j += 4 {
			q0, q1, q2, q3 := float64(q[j]), float64(q[j+1]), float64(q[j+2]), float64(q[j+3])
			a0 += q0 * float64(a[j])
			a1 += q1 * float64(a[j+1])
			a2 += q2 * float64(a[j+2])
			a3 += q3 * float64(a[j+3])
			b0 += q0 * float64(b[j])
			b1 += q1 * float64(b[j+1])
			b2 += q2 * float64(b[j+2])
			b3 += q3 * float64(b[j+3])
		}
		for ; j < d; j++ {
			qj := float64(q[j])
			a0 += qj * float64(a[j])
			b0 += qj * float64(b[j])
		}
		out[i] = a0 + a1 + a2 + a3
		out[i+1] = b0 + b1 + b2 + b3
	}
	if i < len(out) {
		out[i] = dotGo(q, rows[i*d:i*d+d])
	}
}

// SqDistBlock computes out[i] = ||q - rows[i*d:(i+1)*d]||^2 for every row of
// the packed row-major block, each bitwise equal to SqDist(q, row).
// len(rows) must be len(out)*len(q).
func SqDistBlock(q []float32, rows []float32, out []float64) {
	if len(rows) != len(out)*len(q) {
		panic("vec: SqDistBlock shape mismatch")
	}
	sqDistBlockArch(q, rows, out)
}

// sqDistBlockGo is SqDistBlock's reference. The float64 conversions pin the
// rounding of each square, as in SqDist.
func sqDistBlockGo(q []float32, rows []float32, out []float64) {
	d := len(q)
	i := 0
	for ; i+2 <= len(out); i += 2 {
		a := rows[i*d : i*d+d : i*d+d]
		b := rows[i*d+d : i*d+2*d : i*d+2*d]
		var a0, a1, b0, b1 float64
		j := 0
		for ; j+2 <= d; j += 2 {
			q0, q1 := float64(q[j]), float64(q[j+1])
			da0 := q0 - float64(a[j])
			da1 := q1 - float64(a[j+1])
			db0 := q0 - float64(b[j])
			db1 := q1 - float64(b[j+1])
			a0 += float64(da0 * da0)
			a1 += float64(da1 * da1)
			b0 += float64(db0 * db0)
			b1 += float64(db1 * db1)
		}
		if j < d {
			qj := float64(q[j])
			da := qj - float64(a[j])
			db := qj - float64(b[j])
			a0 += float64(da * da)
			b0 += float64(db * db)
		}
		out[i] = a0 + a1
		out[i+1] = b0 + b1
	}
	if i < len(out) {
		out[i] = SqDist(q, rows[i*d:i*d+d])
	}
}

// A BC-Tree stores no point-level ball radius. In the plane spanned by a
// leaf's centre c and one of its points x the offset x - c has the leg
// ||x|| sin phi_x across the centre's direction and ||x|| cos phi_x - ||c||
// along it, so
//
//	r_x^2 = ||x - c||^2 = (||x|| sin phi_x)^2 + (||x|| cos phi_x - ||c||)^2
//
// and r_x follows from the cone pair (xcos, xsin) the leaf keeps for Theorem 3
// and the centerNorm its node record holds. PointSqRadius evaluates the
// identity on the stored values with the along-centre leg widened by what
// those values do not know of it:
//
//   - xcos is the computed projection rounded toward zero to float32, so the
//     computed one lies less than one float32 step beyond it: at most
//     xcosStep*|xcos|, or xcosFloor where xcos is denormal;
//   - the computed projection <x,c>/||c|| misses the true one by up to
//     (1.5d+2) roundings of 2^-53 relative to ||x||, and the computed ||c|| by
//     up to d/2+1 relative to itself. ||x|| is at most |xcos|+xsin, so
//     legSlack times (|xcos| + xsin + centerNorm) covers both for every
//     d <= 2^20 with a factor of four to spare.
//
// The across-centre leg needs nothing: xsin comes out of Rejection, rounded
// up, and is never below the true rejection. Hence the derived radius is never
// below ||x - c||. The spare part of legSlack, and the guard under
// Rejection's root, do the job the stored radius's relative slack did: they
// exceed d*2^-53*(||x|| + ||c||), the rounding of the two inner products
// (<q,c>, <q,x>) a ball bound is compared through, whatever the ratio of
// ||c|| to r_x — which a slack relative to r_x did not.
//
// What the derivation costs is tightness where xcos cannot resolve the
// offset: the widening is about 2^-23 * ||x||, against 2^-23 * r_x for a radius
// stored as float32, so the derived bound is the looser one by the factor
// ||x||/r_x and stops pruning once that passes 2^23. The bound is only ever a
// way to skip the cone bound's evaluation, which dominates it (Theorem 4) and
// is as blind in that regime.
const (
	xcosStep  = 0x1p-23  // one float32 step of a normal xcos, relative to it
	xcosFloor = 0x1p-149 // one float32 step of a denormal xcos
	legSlack  = 0x1p-30
)

// PointSqRadius returns the square of PointRadius. The leaf order, the
// codec's validation and BallCutoff all compare squares, so this is the value
// the order is defined on; the conversions pin each square's rounding so that
// it is the same number on every platform (see doc.go).
func PointSqRadius(centerNorm float64, xcos, xsin float32) float64 {
	pc, ps := float64(xcos), float64(xsin)
	apc := math.Abs(pc)
	leg := math.Abs(pc-centerNorm) + (xcosStep*apc + xcosFloor + legSlack*(apc+ps+centerNorm))
	return float64(ps*ps) + float64(leg*leg)
}

// PointRadius returns an upper bound on r_x = ||x - c|| for a leaf point x
// with stored cone pair (xcos, xsin) under a centre of norm centerNorm: the
// point-level ball radius of Corollary 1, derived instead of stored.
func PointRadius(centerNorm float64, xcos, xsin float32) float64 {
	return math.Sqrt(PointSqRadius(centerNorm, xcos, xsin))
}

// BallCutoff returns the number of leading points of a leaf whose point-level
// ball bound (Corollary 1)
//
//	lb_ball(i) = absIP - qnorm*PointRadius(centerNorm, xcos[i], xsin[i])
//
// does not exceed lambda. The leaf is ordered by descending PointSqRadius, so
// the bound ascends along it and everything from the returned index on is
// prunable in one batch — the flat-layout form of the paper's batch pruning,
// found by binary search instead of a scan. No bound exceeds absIP, so a leaf
// whose centre is within lambda of the hyperplane — most leaves a search
// opens — is answered without looking at a point; otherwise the search
// compares squares, r^2 < ((absIP-lambda)/qnorm)^2, and takes no root per
// probe. The cut is strict (a point is pruned only when its bound is strictly
// above lambda): candidates tied with the current k-th best distance must
// reach the collector, whose (Dist, ID) order decides ties canonically — the
// invariant behind batched/sequential result equivalence.
func BallCutoff(absIP, qnorm, lambda, centerNorm float64, xcos, xsin []float32) int {
	if len(xcos) != len(xsin) {
		panic("vec: BallCutoff shape mismatch")
	}
	gap := absIP - lambda
	if !(gap > 0) {
		return len(xcos)
	}
	if qnorm <= 0 {
		return 0 // every bound is absIP itself
	}
	// lb_ball(i) > lambda  <=>  r_i < gap/qnorm.
	t := gap / qnorm
	t2 := t * t
	lo, hi := 0, len(xcos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if PointSqRadius(centerNorm, xcos[mid], xsin[mid]) < t2 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// coneSlack deflates the cone bound by a relative epsilon per term. The
// rounding a computed projection or rejection carries is relative to the
// term it enters, not to the difference of the two terms, which cancels to
// nothing exactly where the bound decides — so the slack is applied to
// |qcos*xcos| and to qsin*xsin separately, never to their difference.
const coneSlack = 1e-9

// Rejection returns an upper bound on sqrt(||v||^2 - proj^2), the length of
// what is left of a d-dimensional v after taking out its projection proj onto
// a unit direction, from the computed sqNorm = ||v||^2 and proj. The
// subtraction keeps no digits once v is nearly collinear with the direction:
// sqNorm carries up to (d+4) and proj^2 up to 2(2d+2) roundings of 2^-53
// relative to ||v||^2, so the difference can come out low — or be clamped to
// zero — by about 5d*2^-53*||v||^2, which under the root is 1e-8*||v|| and
// more, not 1e-16. Twice that error bound, (d+1)*2^-49*||v||^2, is added
// before the root: the result is never below the true rejection, and a
// product of two guarded rejections exceeds the true product by at least what
// the two projections' own rounding can add to |qcos*xcos| (Cauchy-Schwarz),
// so ConeBound stays a lower bound with every input computed in floating
// point.
func Rejection(sqNorm, proj float64, d int) float64 {
	return math.Sqrt(math.Max(0, sqNorm-proj*proj) + float64(d+1)*0x1p-49*sqNorm)
}

// ConeBound is the point-level cone lower bound (Theorem 3) on |<q, x>| from
// the projections onto (qcos, xcos) and rejections from (qsin, xsin >= 0) a
// shared center direction:
//
//	lb_cone = max(0, |qcos*xcos| - qsin*xsin)
//
// <q, x> is qcos*xcos plus the inner product of the two rejections, which
// Cauchy-Schwarz confines to [-qsin*xsin, qsin*xsin]. This is the paper's
// three-case bound in one expression: it equals each case where that case
// fires, and it also covers the combination the cases leave at zero
// (qcos < 0 and xcos < 0), which is the first case for the hyperplane -q.
// Shrinking |qcos| or |xcos|, or growing qsin or xsin, can only lower it,
// which is what lets the tree store xcos and xsin as outward-rounded float32
// and a search discount qcos by what it does not know about <q, c>. Each term
// is deflated by coneSlack.
func ConeBound(qcos, qsin, xcos, xsin float64) float64 {
	return coneBound(math.Abs(qcos)*(1-coneSlack), qsin*(1+coneSlack), xcos, xsin)
}

// coneBound is ConeBound on a query side that already carries the slack.
func coneBound(qc, qs, xcos, xsin float64) float64 {
	lb := qc*math.Abs(xcos) - qs*xsin
	if lb < 0 {
		return 0
	}
	return lb
}

// ConeSelect is the fused point-level cone bound kernel: it evaluates
// ConeBound for each point of a leaf block and appends the indices of the
// points it cannot prune to sel, returning the extended slice. qcos and qsin
// are the query's projection onto / rejection from the leaf center; xcos and
// xsin are the per-point analogues stored by the tree. A point survives when
// its bound is <= lambda: pruning is strict so boundary ties reach the
// collector's canonical (Dist, ID) ordering (see BallCutoff).
func ConeSelect(qcos, qsin, lambda float64, xcos, xsin []float32, sel []int32) []int32 {
	if len(xcos) != len(xsin) {
		panic("vec: ConeSelect shape mismatch")
	}
	qc, qs := math.Abs(qcos)*(1-coneSlack), qsin*(1+coneSlack)
	for i := range xcos {
		if coneBound(qc, qs, float64(xcos[i]), float64(xsin[i])) <= lambda {
			sel = append(sel, int32(i))
		}
	}
	return sel
}
