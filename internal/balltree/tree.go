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
// conservative under the float64 rounding of one inner product against the
// centre the radius was measured from. It does not cover a product derived by
// Lemma 2, whose error is relative to the centre's norm, not to the radius:
// see centerStep.
const radiusSlack = 1e-9

// centerStep bounds how far a stored centre is from the combination Lemma 1
// defines it as, relative to its norm. A BC parent's centre is
// float32((|L| c_L + |R| c_R)/|N|): every coordinate is rounded to 24 bits,
// so the stored vector misses the exact combination by up to 2^-24 ||c_N||,
// and the right child's product that Lemma 2 derives from it,
// (|N| <q,c_N> - |L| <q,c_L>)/|R|, misses <q, c_R> by up to
// (|N|/|R|) 2^-24 ||q|| ||c_N|| — the rounding amplified by how small a share
// of the parent the right child is, and amplified again at every further
// right turn. On the n = 50 000, d = 129 benchmark tree the miss reaches
// 5.1e-5, some 2e4 radiusSlacks. The second bit covers the float64 rounding
// of the derivation itself. Searcher.step carries the accumulated bound down
// the walk as kappa.
const centerStep = 0x1p-23

// noChild marks a leaf's child slots in the flat arena.
const noChild = int32(-1)

// Kind is which of the paper's two indexes Build constructed. It is a
// build-time fact of the tree: it decides the build algorithm, the payload
// magic, what IndexBytes counts and which centres the arena keeps — and with
// that how a search comes by a right child's inner product: a Ball tree reads
// the child's centre (Algorithm 3), a BC tree has none to read and derives it
// (Lemma 2).
type Kind uint8

const (
	// Ball is Section III's Ball-Tree: centroid balls only, a centre per node.
	Ball Kind = iota
	// BC is Section IV's BC-Tree: Ball plus the per-point leaf arrays, less
	// the centres of right children.
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
// leftRow == right == noChild and cover positions [start, end) of the
// reordered storage; their point-level structures are the [start, end) slices
// of the tree's xcos/xsin arrays, ordered by descending derived r_x
// (vec.PointSqRadius under the leaf's centerNorm). The arena is
// in preorder: the left child of node ni is node ni+1, always, so the record
// does not spend a field on it and holds the row of that child's centre
// instead; the right child sits after the whole left subtree, at right.
type nodeRec struct {
	radius     float64
	centerNorm float64 // ||center||, for the point-level bounds and centerStep; 0 for Ball
	start, end int32
	leftRow    int32 // row of centers holding node ni+1's centre, noChild for leaves
	right      int32 // arena index of the right child, noChild for leaves
}

func (n *nodeRec) count() int32 { return n.end - n.start }
func (n *nodeRec) isLeaf() bool { return n.right == noChild }

// Tree is a Ball-Tree or BC-Tree over lifted data points x = (p; 1).
type Tree struct {
	kind   Kind
	points *vec.Matrix // the matrix BuildOwned was given, reordered: leaf ranges are contiguous rows
	ids    []int32     // position -> the holder's id for that point (the row number it was handed in as, unless labelled)
	nodes  []nodeRec   // flat arena, root at index 0, preorder

	// Packed node centres. A Ball tree keeps one per node, row i = node i's:
	// Algorithm 3 and the classic searches read both children's. A BC search
	// reads a centre only for the root and for left children — a right
	// child's inner product follows from Lemma 2 and every bound it enters is
	// precomputed — so a BC tree keeps just those (nodes+1)/2 rows, the root's
	// first and the left children's in arena order.
	centers *vec.Matrix

	// Position-indexed point-level structures (Algorithm 4 lines 5-9),
	// length n, nil for the Ball kind. Theorem 6 counts three numbers a point;
	// the tree keeps the cone pair only, because the third, r_x = ||x - center||,
	// is the hypotenuse over the pair's offset from the centre and is derived
	// where a bound needs it (vec.PointRadius). Within each leaf's [start, end)
	// slice that derived radius is descending. Both arrays are float32 rounded
	// toward "cannot prune" (up32 and towardZero32 in build.go): a bound
	// computed from them is never above the one the float64 values would give,
	// so results stay exact at half the memory.
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
	// are the ids the tree reports (a shard tree attaches the global store
	// and holds a subset of its rows), and attrSums lets visit() skip subtrees a predicate provably cannot
	// match. Both nil when no attributes are attached.
	attrs    *attr.Store
	attrSums *attr.Summaries

	// Free lists of the execution-engine state (internal/exec): Search and
	// SearchBatch recycle their scratch through these, so steady-state
	// queries allocate nothing.
	searchers exec.Pool[Searcher]
	batchers  exec.Pool[batchSearcher]
}

// center returns node ni's centre on a Ball tree, whose rows are arena
// indices. A BC tree has no row for a right child.
func (t *Tree) center(ni int32) []float32 {
	if t.kind != Ball {
		panic("balltree: only the Ball kind keeps every node's centre")
	}
	return t.centers.Row(int(ni))
}

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
	hl, hr := t.height(ni+1), t.height(n.right)
	if hl > hr {
		return hl + 1
	}
	return hr + 1
}

// Quantized reports whether the tree carries the 8-bit leaf mirror.
func (t *Tree) Quantized() bool { return t.qz != nil }

// AttachAttrs binds a per-point attribute store (row i describes the point
// the tree reports as id i; the store may cover more ids than the tree holds,
// as the global store of a sharded index does for each shard tree) and builds
// the per-node summaries predicate pushdown skips subtrees with. Summaries are
// derived state: cheap to rebuild, never serialized. Passing nil detaches. The
// caller must not mutate the store afterwards.
func (t *Tree) AttachAttrs(st *attr.Store) error {
	if st == nil {
		t.attrs, t.attrSums = nil, nil
		return nil
	}
	for _, id := range t.ids {
		if int(id) >= st.N() {
			return fmt.Errorf("balltree: attribute store covers %d rows, index holds id %d", st.N(), id)
		}
	}
	infos := make([]attr.NodeInfo, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		infos[i] = attr.NodeInfo{Start: n.start, End: n.end, Left: noChild, Right: n.right}
		if !n.isLeaf() {
			infos[i].Left = int32(i) + 1
		}
	}
	t.attrs = st
	t.attrSums = attr.BuildSummaries(st, t.ids, infos)
	return nil
}

// Attrs returns the attached attribute store, nil when none.
func (t *Tree) Attrs() *attr.Store { return t.attrs }

// IndexBytes estimates the memory footprint of the index structure: the
// packed centers matrix, the node records (radius, range, child links),
// the position->id map, the quantized mirror when present, and — BC kind
// only — the per-node centerNorm plus the two Θ(n)-size point-level arrays
// that BC-Tree adds over Ball-Tree (Theorem 6's three, less the radius the
// other two imply). A BC tree keeps half a Ball tree's centres, so it is the
// smaller index of the two once 8 bytes a point cost less than 4d bytes per
// internal node. The reordered data is reported separately by
// DataBytes, mirroring how the paper's Table III separates index size from
// data size.
func (t *Tree) IndexBytes() int64 {
	const perNode = 8 /*radius*/ + 2*4 /*range*/ + 2*4 /*leftRow, right*/
	b := t.centers.Bytes() + int64(len(t.nodes))*perNode + int64(len(t.ids))*4
	if t.kind == BC {
		b += int64(len(t.nodes))*8 /*centerNorm*/ + int64(t.points.N)*2*4
	}
	if t.qz != nil {
		b += int64(len(t.codes)) + int64(t.points.D)*(4+4+8)
	}
	if t.attrs != nil {
		b += t.attrs.MemBytes() + t.attrSums.MemBytes()
	}
	return b
}

// DataBytes returns the size of the reordered data.
func (t *Tree) DataBytes() int64 { return t.points.Bytes() }

// Rows returns the tree's storage and the position -> id map: row p of points
// is the vector BuildOwned was handed under the label ids[p] (as row ids[p],
// when it was handed no labels). Both alias the tree and are read-only. A
// holder that keeps no second copy of what it indexed (internal/dynamic) reads
// its vectors, and which handles it indexed, back through them.
func (t *Tree) Rows() (points *vec.Matrix, ids []int32) { return t.points, t.ids }

// String summarizes the tree for logs.
func (t *Tree) String() string {
	return fmt.Sprintf("%s{n=%d d=%d leafsize=%d nodes=%d leaves=%d height=%d}",
		t.kind, t.N(), t.Dim(), t.leafSize, t.Nodes(), t.leaves, t.Height())
}
