// Package kdtree implements a KD-Tree for P2HNNS — the bounding-box
// alternative the paper's Section III-A(2) argues against choosing.
//
// A box node bounds |<x, q>| through the interval of the inner product over
// the box: each dimension contributes [min(q_i*lo_i, q_i*hi_i),
// max(q_i*lo_i, q_i*hi_i)] depending on the sign of q_i — the "O(d) cases"
// the paper contrasts with the three cases of the ball bound. If the interval
// straddles zero the bound is 0; otherwise it is the distance of the interval
// from zero.
//
// The package exists as a measurable ablation of the paper's design argument:
// the box bound is tighter per node on axis-aligned data but costs a full
// O(d) interval evaluation per node and 2d floats of storage, where the ball
// bound costs one inner product and d+1 floats.
package kdtree

import (
	"fmt"
	"math"
	"sort"
	"time"

	"p2h/internal/core"
	"p2h/internal/vec"
)

// DefaultLeafSize matches the Ball-Tree default N0.
const DefaultLeafSize = 100

// boundSlack keeps box pruning conservative under rounding.
const boundSlack = 1e-9

// Config parameterizes tree construction.
type Config struct {
	// LeafSize is the maximum number of points per leaf. Zero selects
	// DefaultLeafSize.
	LeafSize int
}

func (c Config) normalized() Config {
	if c.LeafSize <= 0 {
		c.LeafSize = DefaultLeafSize
	}
	return c
}

// node covers positions [start, end) of the reordered storage, bounded by the
// axis-aligned box [lo, hi].
type node struct {
	lo, hi      []float32
	start, end  int32
	left, right *node
}

func (n *node) count() int32 { return n.end - n.start }
func (n *node) isLeaf() bool { return n.left == nil }

// Tree is a KD-Tree over lifted data points.
type Tree struct {
	points   *vec.Matrix
	ids      []int32
	root     *node
	leafSize int
	nodes    int
	leaves   int
}

// Build constructs the tree by recursive median splits on the widest box
// dimension. The input matrix is not modified.
func Build(data *vec.Matrix, cfg Config) *Tree {
	if data == nil || data.N == 0 {
		panic("kdtree: empty data")
	}
	cfg = cfg.normalized()
	t := &Tree{ids: make([]int32, data.N), leafSize: cfg.LeafSize}
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	b := &builder{data: data, tree: t}
	t.root = b.build(t.ids, 0)
	t.points = data.SubsetRows(t.ids)
	return t
}

type builder struct {
	data *vec.Matrix
	tree *Tree
}

func (b *builder) build(ids []int32, offset int32) *node {
	n := &node{start: offset, end: offset + int32(len(ids))}
	n.lo, n.hi = b.box(ids)
	b.tree.nodes++
	if len(ids) <= b.tree.leafSize {
		b.tree.leaves++
		return n
	}

	dim := widest(n.lo, n.hi)
	sort.Slice(ids, func(i, j int) bool {
		return b.data.Row(int(ids[i]))[dim] < b.data.Row(int(ids[j]))[dim]
	})
	nl := len(ids) / 2
	n.left = b.build(ids[:nl], offset)
	n.right = b.build(ids[nl:], offset+int32(nl))
	return n
}

// box computes the tight axis-aligned bounding box of the selected rows.
func (b *builder) box(ids []int32) (lo, hi []float32) {
	d := b.data.D
	lo = make([]float32, d)
	hi = make([]float32, d)
	copy(lo, b.data.Row(int(ids[0])))
	copy(hi, lo)
	for _, id := range ids[1:] {
		row := b.data.Row(int(id))
		for j, v := range row {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

func widest(lo, hi []float32) int {
	best, bestDim := float32(-1), 0
	for j := range lo {
		if w := hi[j] - lo[j]; w > best {
			best, bestDim = w, j
		}
	}
	return bestDim
}

// N returns the number of indexed points.
func (t *Tree) N() int { return t.points.N }

// Dim returns the lifted dimensionality.
func (t *Tree) Dim() int { return t.points.D }

// Nodes returns the total number of tree nodes.
func (t *Tree) Nodes() int { return t.nodes }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return t.leaves }

// IndexBytes estimates the index footprint: two box vectors per node plus the
// position->id map — the 2x-center storage the package comment calls out.
func (t *Tree) IndexBytes() int64 {
	perNode := int64(t.points.D)*8 + 2*8 + 2*4
	return int64(t.nodes)*perNode + int64(len(t.ids))*4
}

// DataBytes returns the size of the reordered data copy.
func (t *Tree) DataBytes() int64 { return t.points.Bytes() }

// String summarizes the tree for logs.
func (t *Tree) String() string {
	return fmt.Sprintf("kdtree{n=%d d=%d leafsize=%d nodes=%d leaves=%d}",
		t.N(), t.Dim(), t.leafSize, t.nodes, t.leaves)
}

// ipInterval returns the range of <x, q> over the node's box.
func ipInterval(q []float32, n *node) (lo, hi float64) {
	for j, qv := range q {
		a := float64(qv) * float64(n.lo[j])
		b := float64(qv) * float64(n.hi[j])
		if a <= b {
			lo += a
			hi += b
		} else {
			lo += b
			hi += a
		}
	}
	return lo, hi
}

// boxBound converts the interval into the lower bound on |<x, q>|.
func boxBound(lo, hi float64) float64 {
	if lo <= 0 && hi >= 0 {
		return 0
	}
	if lo > 0 {
		return lo
	}
	return -hi
}

// Search answers a top-k P2HNNS query by branch-and-bound over the boxes.
// Children are visited in order of the midpoint of their inner-product
// interval (the analogue of the paper's center preference).
func (t *Tree) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	var st core.Stats
	tk := core.NewTopK(opts.K)
	s := &searcher{tree: t, q: q, tk: tk, st: &st, opts: opts}
	s.visit(t.root)
	return tk.Results(), st
}

type searcher struct {
	tree *Tree
	q    []float32
	tk   *core.TopK
	st   *core.Stats
	opts core.SearchOptions
}

func (s *searcher) visit(n *node) {
	// A budget cuts this depth-first walk off where it stands; the ball trees'
	// best-first frontier is not mirrored here (an ablation baseline no
	// workload serves under a budget).
	if !s.opts.BudgetLeft(s.st.Candidates) {
		return
	}
	s.st.NodesVisited++

	var start time.Time
	if s.opts.Profile != nil {
		start = time.Now()
	}
	ilo, ihi := ipInterval(s.q, n)
	lb := boxBound(ilo, ihi) * (1 - boundSlack)
	if s.opts.Profile != nil {
		s.opts.Profile.Add(core.PhaseBound, time.Since(start))
	}

	// Strict, like the ball trees: a bound equal to λ does not prune, so
	// boundary ties reach the collector's canonical (Dist, ID) order and
	// exact results agree with the linear scan even on ties.
	if lb > s.tk.Lambda() {
		s.st.PrunedNodes++
		return
	}
	if n.isLeaf() {
		s.scanLeaf(n)
		return
	}

	// Center-like preference: the child whose interval midpoint is closer
	// to zero is likelier to hold near-hyperplane points.
	mlo, mhi := ipInterval(s.q, n.left)
	rlo, rhi := ipInterval(s.q, n.right)
	first, second := n.left, n.right
	if math.Abs(rlo+rhi) < math.Abs(mlo+mhi) {
		first, second = n.right, n.left
	}
	s.visit(first)
	s.visit(second)
}

func (s *searcher) scanLeaf(n *node) {
	s.st.LeavesVisited++
	var start time.Time
	if s.opts.Profile != nil {
		start = time.Now()
	}
	for pos := n.start; pos < n.end; pos++ {
		if !s.opts.BudgetLeft(s.st.Candidates) {
			break
		}
		id := s.tree.ids[pos]
		if s.opts.Filter != nil && !s.opts.Filter(id) {
			continue
		}
		d := math.Abs(vec.Dot(s.q, s.tree.points.Row(int(pos))))
		s.st.IPCount++
		s.st.Candidates++
		s.tk.Push(id, d)
	}
	if s.opts.Profile != nil {
		s.opts.Profile.Add(core.PhaseVerify, time.Since(start))
	}
}
