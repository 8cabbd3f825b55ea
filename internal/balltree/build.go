package balltree

import (
	"math"
	"math/rand"
	"sort"

	"p2h/internal/partition"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// Build constructs a tree of the given kind over the lifted data matrix
// (rows x = (p; 1)). Both kinds share the seed-grow splitting rule
// (Algorithm 2) and the preorder arena: the root is index 0, a node's left
// child is the next index and its right child follows the left subtree.
//
// Ball follows Algorithm 1: every node's center is the centroid of its
// points and its radius the maximum distance from it. BC follows Algorithm 4:
// leaves get the same ball plus the point-level ball and cone structures and
// are sorted by descending r_x for batch pruning; internal-node centers are
// assembled from the children via Lemma 1 in O(d) instead of O(d|N|). Lemma 1
// needs both children's centres, so the builder forms one for every node;
// once the root's is assembled a BC tree drops the right children's, which no
// search reads (see Tree.centers).
//
// The input matrix is not modified; the tree keeps a reordered copy so every
// leaf occupies a contiguous range of rows.
func Build(data *vec.Matrix, kind Kind, cfg Config) *Tree {
	if data == nil || data.N == 0 {
		panic("balltree: empty data")
	}
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Tree{
		kind:     kind,
		ids:      make([]int32, data.N),
		leafSize: cfg.LeafSize,
	}
	if kind == BC {
		t.rx = make([]float32, data.N)
		t.xcos = make([]float32, data.N)
		t.xsin = make([]float32, data.N)
	}
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	b := &builder{data: data, rng: rng, tree: t}
	b.build(t.ids, 0)
	t.centers = &vec.Matrix{Data: b.centers, N: len(t.nodes), D: data.D}
	if kind == BC {
		t.centers = t.compactCenters(t.centers)
	}
	t.points = data.SubsetRows(t.ids)
	if cfg.Quantize {
		t.qz = quant.NewQuantizer(t.points)
		t.codes = t.qz.EncodeMatrix(t.points)
	}
	return t
}

// assignCenterRows sets every node's leftRow for the BC layout of centers:
// row 0 is the root's centre and the left children's follow in arena order,
// so the left child of the i-th internal node has row i+1. Build and Load
// both number the rows here.
func (t *Tree) assignCenterRows() {
	row := int32(1)
	for i := range t.nodes {
		n := &t.nodes[i]
		n.leftRow = noChild
		if !n.isLeaf() {
			n.leftRow = row
			row++
		}
	}
}

// compactCenters turns the builder's table (row i = node i's centre) into the
// BC layout and returns its (nodes+1)/2-row matrix.
func (t *Tree) compactCenters(all *vec.Matrix) *vec.Matrix {
	t.assignCenterRows()
	kept := vec.NewMatrix((len(t.nodes)+1)/2, all.D)
	copy(kept.Row(0), all.Row(0))
	for i := range t.nodes {
		if n := &t.nodes[i]; !n.isLeaf() {
			copy(kept.Row(int(n.leftRow)), all.Row(i+1))
		}
	}
	return kept
}

type builder struct {
	data    *vec.Matrix
	rng     *rand.Rand
	tree    *Tree
	centers []float32 // packed centers, row ni = center of arena node ni
}

// build recursively constructs the subtree over ids, which occupies positions
// [offset, offset+len(ids)) of the final reordered storage. It partitions
// (and, in BC leaves, sorts) ids in place and returns the arena index of the
// subtree root. Nodes are appended before their children (preorder); a BC
// internal node's center is filled in afterwards via Lemma 1.
func (b *builder) build(ids []int32, offset int32) int32 {
	t := b.tree
	d := b.data.D
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, nodeRec{
		start:   offset,
		end:     offset + int32(len(ids)),
		leftRow: noChild,
		right:   noChild,
	})
	leaf := len(ids) <= t.leafSize
	switch {
	case t.kind == Ball:
		b.centers = append(b.centers, b.data.Centroid(ids)...)
		_, maxDist := b.data.MaxDistFrom(ids, b.centers[int(ni)*d:(int(ni)+1)*d])
		t.nodes[ni].radius = maxDist * (1 + radiusSlack)
	case leaf:
		b.fillLeaf(ni, ids, offset)
	default:
		b.centers = append(b.centers, make([]float32, d)...) // filled below
	}
	if leaf {
		t.leaves++
		return ni
	}

	nl := partition.SeedGrow(b.data, ids, b.rng)
	left := b.build(ids[:nl], offset) // == ni+1: preorder
	right := b.build(ids[nl:], offset+int32(nl))
	// Re-index after the recursive appends: the arena may have been regrown.
	// The builder's table has a row per node, which is the Ball layout; Build
	// re-assigns leftRow when it compacts a BC tree's.
	t.nodes[ni].leftRow = left
	t.nodes[ni].right = right
	if t.kind == BC {
		// Lemma 1: N.c * |N| = N.lc.c * |N.lc| + N.rc.c * |N.rc|, so the
		// center of an internal node costs O(d) once its children are built.
		center := b.centers[int(ni)*d : (int(ni)+1)*d]
		combineCenters(center, ni, t, b.centers)
		t.nodes[ni].centerNorm = vec.Norm(center)
		_, maxDist := b.data.MaxDistFrom(ids, center)
		t.nodes[ni].radius = maxDist * (1 + radiusSlack)
	}
	return ni
}

// combineCenters applies Lemma 1 to derive the center of internal node ni
// from its children's centers and counts, writing into dst. centers is the
// builder's table, row i = node i's.
func combineCenters(dst []float32, ni int32, t *Tree, centers []float32) {
	d := len(dst)
	left, right := int(ni)+1, int(t.nodes[ni].right)
	lc := centers[left*d : (left+1)*d]
	rc := centers[right*d : (right+1)*d]
	cl := float64(t.nodes[left].count())
	cr := float64(t.nodes[right].count())
	inv := 1 / (cl + cr)
	for i := range dst {
		dst[i] = float32((cl*float64(lc[i]) + cr*float64(rc[i])) * inv)
	}
}

// fillLeaf computes a BC leaf's ball (center, radius, r_x) and cone
// (||x||cos phi_x, ||x||sin phi_x) structures — Algorithm 4 lines 3-9 — and
// sorts the leaf's ids in descending order of r_x so the point-level ball
// bound prunes in a batch. The structures land in the tree's
// position-indexed arrays at [offset, offset+len(ids)).
func (b *builder) fillLeaf(ni int32, ids []int32, offset int32) {
	t := b.tree
	center := b.data.Centroid(ids)
	b.centers = append(b.centers, center...)
	centerNorm := vec.Norm(center)
	t.nodes[ni].centerNorm = centerNorm

	radii := make([]float64, len(ids))
	b.data.SqDistsFrom(ids, center, radii)
	for i, sq := range radii {
		radii[i] = math.Sqrt(sq)
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool { return radii[order[a]] > radii[order[c]] })

	sortedIDs := make([]int32, len(ids))
	for pos, idx := range order {
		id := ids[idx]
		sortedIDs[pos] = id
		gpos := int(offset) + pos
		t.rx[gpos] = up32(radii[idx] * (1 + radiusSlack))
		x := b.data.Row(int(id))
		xnorm := vec.Norm(x)
		var xcos float64
		if centerNorm > 0 {
			xcos = vec.Dot(x, center) / centerNorm
		}
		// Clamp |cos phi_x| <= 1 scaled by ||x||, then derive the rejection;
		// rounding can push the projection a hair past the norm.
		if xcos > xnorm {
			xcos = xnorm
		} else if xcos < -xnorm {
			xcos = -xnorm
		}
		t.xcos[gpos] = towardZero32(xcos)
		t.xsin[gpos] = up32(vec.Rejection(xnorm*xnorm, xcos, len(x)))
	}
	copy(ids, sortedIDs)
	if len(ids) > 0 {
		// Already slack-inflated and rounded up; rx is descending, and stays
		// so in float32 because rounding is monotone.
		t.nodes[ni].radius = float64(t.rx[offset])
	}
}

// The point-level arrays are stored as float32 rounded toward "cannot prune".
// The ball bound |<q,c>| - ||q||*rx falls as rx grows and the cone bound
// |qcos*xcos| - qsin*xsin (vec.ConeBound) falls as |xcos| shrinks or xsin
// grows, so radii and rejections round up and projections toward zero: a
// stored bound never exceeds the float64 one and nothing is pruned that the
// wider arrays would have kept.

// up32 returns the smallest float32 not below v.
func up32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// towardZero32 returns the float32 of largest magnitude not beyond v.
func towardZero32(v float64) float32 {
	f := float32(v)
	if math.Abs(float64(f)) > math.Abs(v) {
		f = math.Nextafter32(f, 0)
	}
	return f
}
