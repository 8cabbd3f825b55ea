package harness

import p2h "p2h"

// Params is what an experiment varies in the indexes it builds. Zero values
// select the defaults the paper's Section V-C uses (scaled to the
// reproduction sizes where noted in DESIGN.md).
type Params struct {
	// Spec carries the four fields every method shares: LeafSize (the trees'
	// N0, zero: 100), Seed, and NH/FH's M (zero: 32 here — the paper reports
	// m = 128) and L (zero: 2). A method copies those four and sets its own
	// Kind, and NH/FH their Lambda from the two fields below; the Spec's
	// other fields are not read.
	Spec p2h.Spec
	// LambdaFactor multiplies the lifted dimension d+1 to obtain NH/FH's
	// sampled transform dimension lambda (paper: 1..8; default 2).
	LambdaFactor int
	// MaxLambda caps lambda on very high-dimensional sets so a reproduction
	// run stays tractable; 0 means no cap.
	MaxLambda int
}

func (p Params) method(name, kind string) Method {
	return Method{Name: name, Spec: p2h.Spec{
		Kind: kind, LeafSize: p.Spec.LeafSize, Seed: p.Spec.Seed, M: p.Spec.M, L: p.Spec.L,
	}}
}

// hashing returns an NH or FH method over d-dimensional raw points.
func (p Params) hashing(name, kind string, d int) Method {
	if p.LambdaFactor <= 0 {
		p.LambdaFactor = 2
	}
	if p.Spec.M <= 0 {
		p.Spec.M = 32
	}
	m := p.method(name, kind)
	m.Spec.Lambda = p.LambdaFactor * (d + 1)
	if p.MaxLambda > 0 && m.Spec.Lambda > p.MaxLambda {
		m.Spec.Lambda = p.MaxLambda
	}
	return m
}

// BallTree returns the Ball-Tree method (paper Section III).
func BallTree(p Params) Method { return p.method("Ball-Tree", p2h.KindBallTree) }

// BCTree returns the BC-Tree method (paper Section IV).
func BCTree(p Params) Method { return p.method("BC-Tree", p2h.KindBCTree) }

// KDTree returns the KD-Tree extension (DESIGN.md Section 2, item 11).
func KDTree(p Params) Method { return p.method("KD-Tree", p2h.KindKDTree) }

// NH returns the NH hashing baseline over d-dimensional raw points.
func NH(p Params, d int) Method { return p.hashing("NH", p2h.KindNH, d) }

// FH returns the FH hashing baseline over d-dimensional raw points.
func FH(p Params, d int) Method { return p.hashing("FH", p2h.KindFH, d) }

// DefaultMethods returns the paper's four competitors in Figure 5 order, over
// d-dimensional raw points.
func DefaultMethods(p Params, d int) []Method {
	return []Method{BCTree(p), BallTree(p), FH(p, d), NH(p, d)}
}
