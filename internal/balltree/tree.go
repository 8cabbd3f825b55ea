package balltree

import (
	"fmt"

	"p2h/internal/attr"
	"p2h/internal/exec"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// DefaultLeafSize is the paper's default maximum leaf size N0.
const DefaultLeafSize = 100

// radiusSlack inflates stored radii by a relative epsilon so pruning stays
// conservative under floating-point rounding.
const radiusSlack = 1e-9

// boundSlack deflates computed point-level bounds by a relative epsilon, for
// the same reason. Accumulated float64 rounding across the collaborative
// inner product chain stays orders of magnitude below this.
const boundSlack = 1e-9

// noChild marks a leaf's child slots in the flat arena.
const noChild = int32(-1)

// Kind is which of the paper's two indexes Build constructed. It is a
// build-time fact of the tree: it decides the build algorithm, the payload
// magic and what IndexBytes counts, and nothing about how a search runs
// beyond forcing the ablation switches for Ball (see Tree.normalize).
type Kind uint8

const (
	// Ball is Section III's Ball-Tree: centroid balls only.
	Ball Kind = iota
	// BC is Section IV's BC-Tree: Ball plus the per-point leaf arrays.
	BC
)

// String returns the kind's payload-format name.
func (k Kind) String() string {
	if k == Ball {
		return "balltree"
	}
	return "bctree"
}

// Config parameterizes tree construction.
type Config struct {
	// LeafSize is the maximum number of points per leaf (the paper's N0).
	// Zero selects DefaultLeafSize.
	LeafSize int
	// Seed drives the random pivot choice of the seed-grow split
	// (Algorithm 2); builds are deterministic given a seed.
	Seed int64
	// Quantize stores an 8-bit quantized mirror of the reordered points and
	// filters leaf rows through its exact error bound after the ball and
	// cone bounds (BC kind), before float verification. Results are unchanged (the
	// filter is conservative); exact unfiltered searches get cheaper leaf
	// scans for one more byte per coordinate: +25% on the reordered float32
	// data copy.
	Quantize bool
}

func (c Config) normalized() Config {
	if c.LeafSize <= 0 {
		c.LeafSize = DefaultLeafSize
	}
	return c
}

// nodeRec is one ball of the tree in the flat arena. Leaf nodes have
// left == right == noChild and cover positions [start, end) of the reordered
// storage; their point-level structures are the [start, end) slices of the
// tree's rx/xcos/xsin arrays, ordered by descending r_x. Children always sit
// at larger arena indices than their parent (preorder construction).
type nodeRec struct {
	radius      float64
	centerNorm  float64 // ||center||, precomputed for the cone bound; 0 for Ball
	start, end  int32
	left, right int32 // arena indices of children, noChild for leaves
}

func (n *nodeRec) count() int32 { return n.end - n.start }
func (n *nodeRec) isLeaf() bool { return n.left == noChild }

// Tree is a Ball-Tree or BC-Tree over lifted data points x = (p; 1).
type Tree struct {
	kind    Kind
	points  *vec.Matrix // reordered copy: leaf ranges are contiguous rows
	ids     []int32     // position -> original data id
	nodes   []nodeRec   // flat arena, root at index 0, preorder
	centers *vec.Matrix // nodes x d: packed node centers

	// Position-indexed point-level structures (Algorithm 4 lines 5-9),
	// length n; within each leaf's [start, end) slice rx is descending. All
	// three are nil for the Ball kind. They are float32 rounded toward
	// "cannot prune" (up32 and towardZero32 in build.go): a bound computed
	// from them is never above the one the float64 values would give, so
	// results stay exact at half the memory.
	rx   []float32 // ball radii r_x = ||x - center||, rounded up
	xcos []float32 // ||x|| cos(phi_x), the projection of x onto center, rounded toward zero
	xsin []float32 // ||x|| sin(phi_x), the rejection of x from center, rounded up

	leafSize int
	leaves   int

	// Quantized mirror (Config.Quantize): codes is the 8-bit encoding of the
	// reordered points, position-aligned so a leaf's code block sits at
	// [start*d, end*d) like its float block. Both are nil when quantization
	// is off.
	qz    *quant.Quantizer
	codes []uint8

	// Attribute store and its per-node summaries (AttachAttrs): attrs rows
	// are shard-local/original data ids (the id space of results), and
	// attrSums lets visit() skip subtrees a predicate provably cannot
	// match. Both nil when no attributes are attached.
	attrs    *attr.Store
	attrSums *attr.Summaries

	// Free lists of the execution-engine state (internal/exec): Search and
	// SearchBatch recycle their scratch through these, so steady-state
	// queries allocate nothing.
	searchers exec.Pool[Searcher]
	batchers  exec.Pool[batchSearcher]
}

// center returns node ni's center, a row of the packed centers matrix.
func (t *Tree) center(ni int32) []float32 { return t.centers.Row(int(ni)) }

// N returns the number of indexed points.
func (t *Tree) N() int { return t.points.N }

// Dim returns the lifted dimensionality.
func (t *Tree) Dim() int { return t.points.D }

// LeafSize returns the configured maximum leaf size N0.
func (t *Tree) LeafSize() int { return t.leafSize }

// Nodes returns the total number of tree nodes (internal + leaf).
func (t *Tree) Nodes() int { return len(t.nodes) }

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return t.leaves }

// Height returns the height of the tree (a single leaf tree has height 1).
func (t *Tree) Height() int { return t.height(0) }

func (t *Tree) height(ni int32) int {
	n := &t.nodes[ni]
	if n.isLeaf() {
		return 1
	}
	hl, hr := t.height(n.left), t.height(n.right)
	if hl > hr {
		return hl + 1
	}
	return hr + 1
}

// Quantized reports whether the tree carries the 8-bit leaf mirror.
func (t *Tree) Quantized() bool { return t.qz != nil }

// AttachAttrs binds a per-point attribute store (row i = the id the tree
// reports as result i) and builds the per-node summaries predicate pushdown
// skips subtrees with. Summaries are derived state: cheap to rebuild, never
// serialized. Passing nil detaches. The caller must not mutate the store
// afterwards.
func (t *Tree) AttachAttrs(st *attr.Store) error {
	if st == nil {
		t.attrs, t.attrSums = nil, nil
		return nil
	}
	if st.N() != t.points.N {
		return fmt.Errorf("balltree: attribute store covers %d rows, index holds %d", st.N(), t.points.N)
	}
	infos := make([]attr.NodeInfo, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		infos[i] = attr.NodeInfo{Start: n.start, End: n.end, Left: n.left, Right: n.right}
	}
	t.attrs = st
	t.attrSums = attr.BuildSummaries(st, t.ids, infos)
	return nil
}

// Attrs returns the attached attribute store, nil when none.
func (t *Tree) Attrs() *attr.Store { return t.attrs }

// IndexBytes estimates the memory footprint of the index structure: the
// packed centers matrix, the node records (radius, range, child indices),
// the position->id map, the quantized mirror when present, and — BC kind
// only — the per-node centerNorm plus the three Θ(n)-size point-level arrays
// that BC-Tree adds over Ball-Tree (Theorem 6). The reordered copy of the
// data is reported separately by DataBytes, mirroring how the paper's Table
// III separates index size from data size.
func (t *Tree) IndexBytes() int64 {
	const perNode = 8 /*radius*/ + 2*4 /*range*/ + 2*4 /*children*/
	b := t.centers.Bytes() + int64(len(t.nodes))*perNode + int64(len(t.ids))*4
	if t.kind == BC {
		b += int64(len(t.nodes))*8 /*centerNorm*/ + int64(t.points.N)*3*4
	}
	if t.qz != nil {
		b += int64(len(t.codes)) + int64(t.points.D)*(4+4+8)
	}
	if t.attrs != nil {
		b += t.attrs.MemBytes() + t.attrSums.MemBytes()
	}
	return b
}

// DataBytes returns the size of the reordered data copy.
func (t *Tree) DataBytes() int64 { return t.points.Bytes() }

// Rows returns the reordered data copy and the position -> id map: row p of
// points is the vector Build was handed as row ids[p]. Both alias the tree
// and are read-only. A holder that keeps no second copy of what it indexed
// (internal/dynamic) reads its vectors back through them.
func (t *Tree) Rows() (points *vec.Matrix, ids []int32) { return t.points, t.ids }

// String summarizes the tree for logs.
func (t *Tree) String() string {
	return fmt.Sprintf("%s{n=%d d=%d leafsize=%d nodes=%d leaves=%d height=%d}",
		t.kind, t.N(), t.Dim(), t.leafSize, t.Nodes(), t.leaves, t.Height())
}
