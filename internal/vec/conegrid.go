package vec

import "math"

// A BC-Tree leaf keeps each point's cone pair (xcos, xsin) — its projection
// onto the leaf centre's direction and its rejection from it — as two 16-bit
// codes on grids the leaf's node record already fixes. A bound needs the pair
// conservative, not exact, and the record confines both values: every point
// is within the leaf's radius R of the centre c, so
//
//	|xcos - ||c||| <= R   and   0 <= xsin <= R,
//
// up to the rounding of the computed values, and 16 bits measured relative to
// R are enough. Where ||c||/R > 2^8 they resolve the along-centre leg finer
// than a float32 xcos would.
//
// ConeGrid is the pair of grids of one leaf, a function of its centerNorm C,
// its radius R and the (lifted) dimension d alone, so a leaf stores nothing to
// describe it:
//
//   - xcos is a multiple k*cosStep of a step just above 2R'/65533, where
//     R' = R + 2^-20 (C + R) widens the radius by far more than the computed
//     projection can miss the true one by ((2d+3) 2^-53 (C + R), at most
//     2^-31 (C + R) for d <= 2^20). Code 0 stands for the grid index
//     cosLow = floor((C - R')/cosStep), so the 65536 codes span more than
//     [C - R', C + R']. Zero is on the grid, so xcos rounds toward zero.
//   - xsin is a multiple of a step just above S/65535, where
//     S = R + sqrt((d+1) 2^-47) (C + R) covers Rejection's guard twice over.
//     xsin rounds up.
//
// Both steps are rounded up to 17 significant bits. With R' >= 2^-20 C no
// grid index exceeds 2^36 in magnitude, so every grid value — index times
// step — is a float64 product of two factors whose significands multiply to
// less than 2^53: exact. Decoding rounds nothing, a code stands for the same
// number on every platform, and the encoder's "toward zero within one step"
// is a statement about exact values. gridFloor keeps both steps normal
// floats where C and R are zero or denormal.
//
// A value off its grid is unreachable by construction — the grids are wider
// than any computed pair of a finite leaf — so Encode asserts rather than
// clamps: a clamped code would no longer be within one step of its value, and
// the point radius derived from it (SqRadius) would lose its soundness.
type ConeGrid struct {
	centerNorm float64
	cosLow     float64 // grid index of xcos code 0, an integer
	cosStep    float64
	sinStep    float64
	legPad     float64 // what SqRadius widens the along-centre leg by
}

const (
	cosCodes  = 65533   // xcos steps across 2R': two codes to spare
	sinCodes  = 65535   // xsin steps across S
	gridRel   = 0x1p-20 // R' - R, relative to C + R
	gridFloor = 0x1p-900
	// gridDrop is how many low significand bits a step clears: 52 stored bits
	// less the 16 kept beside the implicit leading one.
	gridDrop = 36
)

// NewConeGrid returns the grids of a leaf of the given centre norm and
// radius over d-dimensional points. Both must be finite and non-negative (the
// codec's validation checks every leaf's) and below 2^1000.
func NewConeGrid(centerNorm, radius float64, d int) ConeGrid {
	span := radius + gridRel*(centerNorm+radius) + gridFloor // R'
	sinTop := radius + float64(math.Sqrt(float64(d+1)*0x1p-47)*(centerNorm+radius)) + gridFloor
	cosStep := stepAbove(2 * span / cosCodes)
	return ConeGrid{
		centerNorm: centerNorm,
		cosLow:     math.Floor((centerNorm - span) / cosStep),
		cosStep:    cosStep,
		sinStep:    stepAbove(sinTop / sinCodes),
		legPad:     cosStep + legSlack*(centerNorm+radius),
	}
}

// stepAbove returns the least float64 of at most 17 significant bits not
// below the positive normal v: v with its low gridDrop significand bits
// cleared, rounded up (a carry out of the significand moves the exponent,
// which is still the right number).
func stepAbove(v float64) float64 {
	const low = 1<<gridDrop - 1
	b := math.Float64bits(v)
	if b&low != 0 {
		b = b | low + 1
	}
	return math.Float64frombits(b)
}

// Pair decodes one point's codes into the cone pair a bound reads: the
// projection, at or inside the computed one by less than one step, and the
// rejection, at or above it by less than one step. Every reader of the codes
// goes through it.
func (g *ConeGrid) Pair(cos, sin uint16) (xcos, xsin float64) {
	return (g.cosLow + float64(cos)) * g.cosStep, float64(sin) * g.sinStep
}

// Encode codes a computed cone pair of one of the leaf's points: xcos rounded
// toward zero and xsin up, each to the nearest grid value on that side. It
// panics if either lies off its grid, which a pair computed from a point of
// the leaf cannot (see ConeGrid).
func (g *ConeGrid) Encode(xcos, xsin float64) (cos, sin uint16) {
	k := math.Floor(xcos / g.cosStep)
	if !(k >= g.cosLow-1 && k <= g.cosLow+math.MaxUint16+1) {
		panic("vec: cone projection off its leaf's grid")
	}
	// The division rounded; settle k on the exact grid values around xcos.
	for k*g.cosStep > xcos {
		k--
	}
	for (k+1)*g.cosStep <= xcos {
		k++
	}
	if k*g.cosStep < xcos && xcos < 0 {
		k++ // toward zero
	}
	j := math.Ceil(xsin / g.sinStep)
	if !(j >= 0 && j <= math.MaxUint16+1) {
		panic("vec: cone rejection off its leaf's grid")
	}
	for j*g.sinStep < xsin {
		j++
	}
	for j > 0 && (j-1)*g.sinStep >= xsin {
		j--
	}
	c := k - g.cosLow
	if c < 0 || c > math.MaxUint16 || j > math.MaxUint16 {
		panic("vec: cone pair off its leaf's grid")
	}
	return uint16(c), uint16(j)
}

// ConePair computes the cone pair of point x under a leaf centre of norm
// centerNorm, as the builder codes it: the projection <x,c>/||c||, clamped
// to ||x|| in magnitude (rounding can push it a hair past), zero when the
// centre is the origin, and the guarded rejection that goes with it.
func ConePair(x, center []float32, centerNorm float64) (xcos, xsin float64) {
	xnorm := Norm(x)
	if centerNorm > 0 {
		xcos = math.Max(-xnorm, math.Min(xnorm, Dot(x, center)/centerNorm))
	}
	return xcos, Rejection(xnorm*xnorm, xcos, len(x))
}

// A BC-Tree stores no point-level ball radius. In the plane spanned by a
// leaf's centre c and one of its points x the offset x - c has the leg
// ||x|| sin phi_x across the centre's direction and ||x|| cos phi_x - ||c||
// along it, so
//
//	r_x^2 = ||x - c||^2 = (||x|| sin phi_x)^2 + (||x|| cos phi_x - ||c||)^2
//
// and r_x follows from the cone pair and the centerNorm the node record
// holds. SqRadius evaluates the identity on the decoded pair with the
// along-centre leg widened by what the pair does not know of it:
//
//   - the decoded xcos lies less than one grid step inside the computed
//     projection (cosStep);
//   - the computed projection <x,c>/||c|| misses the true one by up to
//     (1.5d+2) roundings of 2^-53 relative to ||x||, and the computed ||c||
//     by up to d/2+1 relative to itself; with the d-term inner products
//     (<q,c>, <q,x>) a ball bound is compared through, which miss by
//     d 2^-53 (||x|| + ||c||), that is at most (4d+3) 2^-53 (C + R), since
//     ||x|| <= C + R. legSlack times (C + R) covers it for every d <= 2^20
//     with a factor of four to spare.
//
// The across-centre leg needs nothing: the decoded xsin is at or above the
// computed rejection, which Rejection's guard keeps above the true one. Hence
// the derived radius is never below ||x - c||, whatever the ratio of ||c|| to
// r_x — which a slack relative to r_x was not.
const legSlack = 0x1p-29

// SqRadius returns the square of Radius. The leaf order, the codec's
// validation and BallCutoff all compare squares, so this is the value the
// order is defined on; the conversions pin each square's rounding so that it
// is the same number on every platform (see doc.go).
func (g *ConeGrid) SqRadius(cos, sin uint16) float64 {
	pc, ps := g.Pair(cos, sin)
	leg := math.Abs(pc-g.centerNorm) + g.legPad
	return float64(ps*ps) + float64(leg*leg)
}

// Radius returns an upper bound on r_x = ||x - c|| for a leaf point x with
// codes (cos, sin): the point-level ball radius of Corollary 1, derived
// instead of stored.
func (g *ConeGrid) Radius(cos, sin uint16) float64 { return math.Sqrt(g.SqRadius(cos, sin)) }
