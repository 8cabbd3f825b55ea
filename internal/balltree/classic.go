package balltree

import (
	"math"

	"p2h/internal/core"
	"p2h/internal/vec"
)

// This file adds the classic Ball-Tree searches the paper's related work
// builds on (Omohundro [49]; Ram & Gray [51]): Euclidean nearest neighbor,
// Euclidean furthest neighbor, and maximum inner product search. They share
// the tree built for P2HNNS — one structure, four query types — which is the
// "revitalizing Ball-Tree" theme in code. They read every node's centre, so
// they need the Ball kind (Tree.center panics on a BC tree, which keeps half).
//
// All three run over the *lifted* vectors x = (p; 1) the tree stores. For
// Euclidean queries the lift is harmless as long as the query is lifted the
// same way (the constant coordinate cancels in every difference); for MIPS
// the caller chooses the lift semantics (a lifted query (w; b) scores
// <w, p> + b, which is often exactly what applications want).

// SearchNN returns the k indexed points nearest to q in Euclidean distance,
// using the classic bound: every point of a node is at least
// ||q - c|| - r away. q must have the lifted dimensionality Dim().
func (t *Tree) SearchNN(q []float32, k int) ([]core.Result, core.Stats) {
	if k <= 0 {
		k = 1
	}
	var st core.Stats
	tk := core.NewTopK(k)
	s := &classicSearcher{tree: t, q: q, tk: tk, st: &st}
	s.visitNN(0)
	return tk.Results(), st
}

// SearchFN returns the k indexed points furthest from q in Euclidean
// distance, using the mirror bound: every point of a node is at most
// ||q - c|| + r away.
func (t *Tree) SearchFN(q []float32, k int) ([]core.Result, core.Stats) {
	if k <= 0 {
		k = 1
	}
	var st core.Stats
	tk := core.NewTopKMax(k)
	s := &classicSearcher{tree: t, q: q, tkMax: tk, st: &st}
	s.visitFN(0)
	return tk.Results(), st
}

// SearchMIP returns the k indexed points with the largest inner product
// <q, x>, using the Cauchy-Schwarz bound <q, x> <= <q, c> + ||q||·r
// (Ram & Gray's ball bound for MIPS). Result distances hold the inner
// products.
func (t *Tree) SearchMIP(q []float32, k int) ([]core.Result, core.Stats) {
	if k <= 0 {
		k = 1
	}
	var st core.Stats
	tk := core.NewTopKMax(k)
	s := &classicSearcher{tree: t, q: q, qnorm: vec.Norm(q), tkMax: tk, st: &st}
	s.visitMIP(0)
	return tk.Results(), st
}

type classicSearcher struct {
	tree  *Tree
	q     []float32
	qnorm float64
	tk    *core.TopK
	tkMax *core.TopKMax
	st    *core.Stats
	buf   []float64
}

func (s *classicSearcher) scratch(m int) []float64 {
	if cap(s.buf) < m {
		s.buf = make([]float64, m)
	}
	return s.buf[:m]
}

// leafRows returns the contiguous row block of a leaf.
func (s *classicSearcher) leafRows(n *nodeRec) []float32 {
	d := s.tree.points.D
	return s.tree.points.Data[int(n.start)*d : int(n.end)*d]
}

func (s *classicSearcher) visitNN(ni int32) {
	s.st.NodesVisited++
	n := &s.tree.nodes[ni]
	dc := vec.Dist(s.q, s.tree.center(ni))
	s.st.IPCount++
	if dc-n.radius >= s.tk.Lambda() {
		s.st.PrunedNodes++
		return
	}
	if n.isLeaf() {
		s.st.LeavesVisited++
		m := int(n.count())
		dists := s.scratch(m)
		vec.SqDistBlock(s.q, s.leafRows(n), dists)
		s.st.IPCount += int64(m)
		s.st.Candidates += int64(m)
		for i := 0; i < m; i++ {
			s.tk.Push(s.tree.ids[int(n.start)+i], math.Sqrt(dists[i]))
		}
		return
	}
	// Closer child first: it is likelier to shrink lambda early.
	first, second := ni+1, n.right
	if vec.SqDist(s.q, s.tree.center(second)) < vec.SqDist(s.q, s.tree.center(first)) {
		first, second = second, first
	}
	s.st.IPCount += 2
	s.visitNN(first)
	s.visitNN(second)
}

func (s *classicSearcher) visitFN(ni int32) {
	s.st.NodesVisited++
	n := &s.tree.nodes[ni]
	dc := vec.Dist(s.q, s.tree.center(ni))
	s.st.IPCount++
	if dc+n.radius <= s.tkMax.Lambda() {
		s.st.PrunedNodes++
		return
	}
	if n.isLeaf() {
		s.st.LeavesVisited++
		m := int(n.count())
		dists := s.scratch(m)
		vec.SqDistBlock(s.q, s.leafRows(n), dists)
		s.st.IPCount += int64(m)
		s.st.Candidates += int64(m)
		for i := 0; i < m; i++ {
			s.tkMax.Push(s.tree.ids[int(n.start)+i], math.Sqrt(dists[i]))
		}
		return
	}
	// Farther child first.
	first, second := ni+1, n.right
	if vec.SqDist(s.q, s.tree.center(second)) > vec.SqDist(s.q, s.tree.center(first)) {
		first, second = second, first
	}
	s.st.IPCount += 2
	s.visitFN(first)
	s.visitFN(second)
}

func (s *classicSearcher) visitMIP(ni int32) {
	s.st.NodesVisited++
	n := &s.tree.nodes[ni]
	ip := vec.Dot(s.q, s.tree.center(ni))
	s.st.IPCount++
	if ip+s.qnorm*n.radius <= s.tkMax.Lambda() {
		s.st.PrunedNodes++
		return
	}
	if n.isLeaf() {
		s.st.LeavesVisited++
		m := int(n.count())
		dists := s.scratch(m)
		vec.DotBlock(s.q, s.leafRows(n), dists)
		s.st.IPCount += int64(m)
		s.st.Candidates += int64(m)
		for i := 0; i < m; i++ {
			s.tkMax.Push(s.tree.ids[int(n.start)+i], dists[i])
		}
		return
	}
	// Larger-inner-product child first.
	first, second := ni+1, n.right
	ipl := vec.Dot(s.q, s.tree.center(first))
	ipr := vec.Dot(s.q, s.tree.center(second))
	s.st.IPCount += 2
	if ipr > ipl {
		first, second = second, first
	}
	s.visitMIP(first)
	s.visitMIP(second)
}

// boundNN exposes the NN bound for tests.
func boundNN(q []float32, center []float32, radius float64) float64 {
	return math.Max(vec.Dist(q, center)-radius, 0)
}

// boundFN exposes the FN bound for tests.
func boundFN(q []float32, center []float32, radius float64) float64 {
	return vec.Dist(q, center) + radius
}

// boundMIP exposes the MIPS bound for tests.
func boundMIP(q []float32, center []float32, radius float64) float64 {
	return vec.Dot(q, center) + vec.Norm(q)*radius
}
