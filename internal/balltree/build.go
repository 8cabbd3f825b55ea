package balltree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"p2h/internal/partition"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// BuildOwned constructs a tree of the given kind over the lifted points
// (rows x = (p; 1)) and takes ownership of the matrix: it reorders the rows in
// place, so that every node — and in the end every leaf — occupies a
// contiguous block, and keeps the matrix as the tree's storage. There is no
// second copy. A caller that still needs its matrix, or whose matrix other
// goroutines read, hands over a clone (Build does).
//
// labels names the points in the id space of whoever holds the tree:
// labels[i] is the id every search reports for the point handed in as row i
// (a shard's global row numbers, a dynamic index's handles). nil labels each
// row with its own number. The builder reads labels and never keeps it.
//
// Both kinds share the seed-grow splitting rule (Algorithm 2) and the preorder
// arena: the root is index 0, a node's left child is the next index and its
// right child follows the left subtree.
//
// Ball follows Algorithm 1: every node's center is the centroid of its
// points and its radius the maximum distance from it. BC follows Algorithm 4:
// leaves get the same ball plus the point-level cone structures, from which
// the point-level ball radius r_x follows (vec.PointRadius), and are sorted by
// descending r_x for batch pruning; internal-node centers are
// assembled from the children via Lemma 1 in O(d) instead of O(d|N|). Lemma 1
// needs both children's centres, so the builder forms one for every node;
// once the root's is assembled a BC tree drops the right children's, which no
// search reads (see Tree.centers).
func BuildOwned(rows *vec.Matrix, labels []int32, kind Kind, cfg Config) *Tree {
	if rows == nil || rows.N == 0 {
		panic("balltree: empty data")
	}
	if rows.D > maxSerialDim {
		// Load refuses such a payload, and vec.PointRadius budgets the rounding
		// of a d-term inner product for d up to this.
		panic(fmt.Sprintf("balltree: dimension %d exceeds %d", rows.D, maxSerialDim))
	}
	if labels != nil && len(labels) != rows.N {
		panic(fmt.Sprintf("balltree: %d labels for %d rows", len(labels), rows.N))
	}
	cfg = cfg.normalized()
	t := &Tree{
		kind:     kind,
		points:   rows,
		ids:      make([]int32, rows.N),
		leafSize: cfg.LeafSize,
	}
	if labels != nil {
		copy(t.ids, labels)
	} else {
		for i := range t.ids {
			t.ids[i] = int32(i)
		}
	}
	b := &builder{
		rng: rand.New(rand.NewSource(cfg.Seed)), tree: t,
		acc:  make([]float64, rows.D),
		dist: make([]float64, 2*rows.N),
	}
	if kind == BC {
		t.xcos = make([]float32, rows.N)
		t.xsin = make([]float32, rows.N)
		leaf := min(cfg.LeafSize, rows.N)
		b.leaf = make([]leafPoint, 0, leaf)
		b.leafRows = make([]float32, leaf*rows.D)
	}
	b.build(0, int32(rows.N))
	t.centers = &vec.Matrix{Data: b.centers, N: len(t.nodes), D: rows.D}
	if kind == BC {
		t.centers = t.compactCenters(t.centers)
	}
	if cfg.Quantize {
		t.qz = quant.NewQuantizer(t.points)
		t.codes = t.qz.EncodeMatrix(t.points)
	}
	return t
}

// Build is BuildOwned for a caller that shares its matrix: data is not
// modified, the tree is built over a clone and reports row numbers as ids.
func Build(data *vec.Matrix, kind Kind, cfg Config) *Tree {
	return BuildOwned(data.Clone(), nil, kind, cfg)
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
	rng     *rand.Rand
	tree    *Tree     // its points and ids are what the builder reorders
	centers []float32 // packed centers, row ni = center of arena node ni

	// Scratch, sized once by BuildOwned so that what a build allocates does
	// not grow with the number of nodes: the centroid accumulator (d), the
	// seed-grow split's two distances per point (2n) and one leaf's points and
	// rows (LeafSize, LeafSize x d).
	acc      []float64
	dist     []float64
	leaf     []leafPoint
	leafRows []float32
}

// leafPoint is one point of the BC leaf being filled: its cone pair as the
// tree will store it, the squared radius derived from that pair, which the
// leaf is ordered by, and where in the leaf the point was before the sort.
type leafPoint struct {
	sqRadius   float64
	xcos, xsin float32
	id         int32
	from       int32
}

// build recursively constructs the subtree over positions [start, end) of the
// tree's storage. It partitions (and, in BC leaves, sorts) the rows and their
// ids in place and returns the arena index of the subtree root. Nodes are
// appended before their children (preorder); a BC internal node's center is
// filled in afterwards via Lemma 1.
func (b *builder) build(start, end int32) int32 {
	t := b.tree
	d := t.points.D
	rows := t.points.Data[int(start)*d : int(end)*d]
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, nodeRec{
		start:   start,
		end:     end,
		leftRow: noChild,
		right:   noChild,
	})
	b.centers = append(b.centers, make([]float32, d)...)
	leaf := int(end-start) <= t.leafSize
	if t.kind == Ball || leaf {
		center := b.centers[int(ni)*d : (int(ni)+1)*d]
		vec.CentroidBlock(rows, b.acc, center)
		_, maxDist := vec.MaxDistBlock(center, rows)
		t.nodes[ni].radius = maxDist * (1 + radiusSlack)
		if t.kind == BC {
			b.fillLeaf(ni, rows, center)
		}
	}
	if leaf {
		t.leaves++
		return ni
	}

	mid := start + int32(partition.SeedGrow(rows, t.ids[start:end], b.rng, b.dist))
	left := b.build(start, mid) // == ni+1: preorder
	right := b.build(mid, end)
	// Re-index after the recursive appends: the arena may have been regrown.
	// The builder's table has a row per node, which is the Ball layout;
	// BuildOwned re-assigns leftRow when it compacts a BC tree's.
	t.nodes[ni].leftRow = left
	t.nodes[ni].right = right
	if t.kind == BC {
		// Lemma 1: N.c * |N| = N.lc.c * |N.lc| + N.rc.c * |N.rc|, so the
		// center of an internal node costs O(d) once its children are built.
		center := b.centers[int(ni)*d : (int(ni)+1)*d]
		combineCenters(center, ni, t, b.centers)
		t.nodes[ni].centerNorm = vec.Norm(center)
		_, maxDist := vec.MaxDistBlock(center, rows)
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

// fillLeaf computes a BC leaf's cone structures (||x||cos phi_x,
// ||x||sin phi_x) — Algorithm 4 lines 3-9 — around the centre and radius
// build has set, and sorts the leaf's rows, with their ids, in descending
// order of the r_x those structures imply (vec.PointSqRadius), so the
// point-level ball bound prunes in a batch. The order is defined on the
// float32 values the tree stores, not on the distances they stand for: what
// Load checks is what the builder sorted by. The structures land in the tree's
// position-indexed arrays at the leaf's range.
//
// The leaf's own radius is not its first point's derived one but the true
// maximum distance, as for every other node — rounded up to float32, which is
// what a stored r_x[0] made of it. A derived radius is an upper bound with
// room in it (a leaf of duplicates derives a small positive one where the
// true radius is zero), and the node-level bound, the frontier's order and
// every counter downstream should not move with that room.
func (b *builder) fillLeaf(ni int32, rows, center []float32) {
	t := b.tree
	n := &t.nodes[ni]
	d := len(center)
	ids := t.ids[n.start:n.end]
	n.radius = float64(up32(n.radius))
	centerNorm := vec.Norm(center)
	n.centerNorm = centerNorm

	pts := b.leaf[:0]
	for i, id := range ids {
		x := rows[i*d : (i+1)*d]
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
		p := leafPoint{
			xcos: towardZero32(xcos),
			xsin: up32(vec.Rejection(xnorm*xnorm, xcos, len(x))),
			id:   id,
			from: int32(i),
		}
		p.sqRadius = vec.PointSqRadius(centerNorm, p.xcos, p.xsin)
		pts = append(pts, p)
	}
	slices.SortStableFunc(pts, func(a, c leafPoint) int { return cmp.Compare(c.sqRadius, a.sqRadius) })
	// The sort moved records, not rows: permute the rows through the scratch.
	old := b.leafRows[:len(rows)]
	copy(old, rows)
	for i, p := range pts {
		copy(rows[i*d:(i+1)*d], old[int(p.from)*d:(int(p.from)+1)*d])
		ids[i] = p.id
		t.xcos[int(n.start)+i] = p.xcos
		t.xsin[int(n.start)+i] = p.xsin
	}
}

// The point-level arrays are stored as float32 rounded toward "cannot prune".
// The cone bound |qcos*xcos| - qsin*xsin (vec.ConeBound) falls as |xcos|
// shrinks or xsin grows, so rejections round up and projections toward zero:
// a stored bound never exceeds the float64 one and nothing is pruned that the
// wider arrays would have kept. The ball bound |<q,c>| - ||q||*r_x falls as
// r_x grows; vec.PointRadius widens the derived r_x by what the two roundings
// can hide.

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
