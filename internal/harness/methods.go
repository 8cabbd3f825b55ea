package harness

import (
	"p2h/internal/balltree"
	"p2h/internal/fh"
	"p2h/internal/kdtree"
	"p2h/internal/linearscan"
	"p2h/internal/nh"
	"p2h/internal/vec"
)

// Params bundles the per-method construction parameters an experiment varies.
// Zero values select the defaults the paper's Section V-C uses (scaled to the
// reproduction sizes where noted in DESIGN.md).
type Params struct {
	// LeafSize is the trees' N0 (default 100).
	LeafSize int
	// Seed drives all randomized construction.
	Seed int64
	// LambdaFactor multiplies the lifted dimension to obtain NH/FH's
	// sampled transform dimension lambda (paper: 1..8; default 2).
	LambdaFactor int
	// MaxLambda caps lambda on very high-dimensional sets so a reproduction
	// run stays tractable; 0 means no cap.
	MaxLambda int
	// HashM is NH/FH's projection count m (paper reports m=128; the
	// reproduction default is 32).
	HashM int
	// HashL is the collision / separation threshold (default 2).
	HashL int
}

func (p Params) normalized() Params {
	if p.LeafSize <= 0 {
		p.LeafSize = 100
	}
	if p.LambdaFactor <= 0 {
		p.LambdaFactor = 2
	}
	if p.HashM <= 0 {
		p.HashM = 32
	}
	if p.HashL <= 0 {
		p.HashL = 2
	}
	return p
}

func (p Params) lambda(d int) int {
	l := p.LambdaFactor * d
	if p.MaxLambda > 0 && l > p.MaxLambda {
		l = p.MaxLambda
	}
	return l
}

// BallTree returns the Ball-Tree method (paper Section III).
func BallTree(p Params) Method {
	p = p.normalized()
	return Method{Name: "Ball-Tree", Build: func(data *vec.Matrix) BuiltIndex {
		return balltree.Build(data, balltree.Ball, balltree.Config{LeafSize: p.LeafSize, Seed: p.Seed})
	}}
}

// BCTree returns the BC-Tree method (paper Section IV).
func BCTree(p Params) Method {
	p = p.normalized()
	return Method{Name: "BC-Tree", Build: func(data *vec.Matrix) BuiltIndex {
		return balltree.Build(data, balltree.BC, balltree.Config{LeafSize: p.LeafSize, Seed: p.Seed})
	}}
}

// NH returns the NH hashing baseline.
func NH(p Params) Method {
	p = p.normalized()
	return Method{Name: "NH", Build: func(data *vec.Matrix) BuiltIndex {
		return nh.Build(data, nh.Config{
			Lambda: p.lambda(data.D),
			M:      p.HashM,
			L:      p.HashL,
			Seed:   p.Seed,
		})
	}}
}

// FH returns the FH hashing baseline.
func FH(p Params) Method {
	p = p.normalized()
	return Method{Name: "FH", Build: func(data *vec.Matrix) BuiltIndex {
		return fh.Build(data, fh.Config{
			Lambda: p.lambda(data.D),
			M:      p.HashM,
			L:      p.HashL,
			Seed:   p.Seed,
		})
	}}
}

// KDTree returns the KD-Tree extension (DESIGN.md Section 2, item 11).
func KDTree(p Params) Method {
	p = p.normalized()
	return Method{Name: "KD-Tree", Build: func(data *vec.Matrix) BuiltIndex {
		return kdtree.Build(data, kdtree.Config{LeafSize: p.LeafSize})
	}}
}

// LinearScan returns the exhaustive baseline.
func LinearScan() Method {
	return Method{Name: "Scan", Build: func(data *vec.Matrix) BuiltIndex {
		return scanIndex{linearscan.New(data)}
	}}
}

// DefaultMethods returns the paper's four competitors in Figure 5 order.
func DefaultMethods(p Params) []Method {
	return []Method{BCTree(p), BallTree(p), FH(p), NH(p)}
}
