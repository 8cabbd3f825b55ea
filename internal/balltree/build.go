package balltree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"p2h/internal/partition"
	"p2h/internal/vec"
)

// BuildOwned constructs a tree of the given kind over the lifted points
// (rows x = (p; 1)) and takes ownership of the matrix: it reorders the rows in
// place, so that every node — and in the end every leaf — occupies a
// contiguous block, and keeps the matrix's rows as the tree's storage. There
// is no second copy. A caller that still needs its matrix, or whose matrix other
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
// the point-level ball radius r_x follows (vec.ConeGrid.Radius), and are sorted by
// descending r_x for batch pruning; internal-node centers are
// assembled from the children via Lemma 1 in O(d) instead of O(d|N|). Lemma 1
// needs both children's centres, so the builder forms one for every node;
// once the root's is assembled a BC tree drops the right children's, which no
// search reads (see sections.centers).
func BuildOwned(rows *vec.Matrix, labels []int32, kind Kind, cfg Config) *Tree {
	if rows == nil || rows.N == 0 {
		panic("balltree: empty data")
	}
	if rows.D > maxSerialDim {
		// Load refuses such a payload, and vec.ConeGrid budgets the rounding
		// of a d-term inner product for d up to this.
		panic(fmt.Sprintf("balltree: dimension %d exceeds %d", rows.D, maxSerialDim))
	}
	if labels != nil && len(labels) != rows.N {
		panic(fmt.Sprintf("balltree: %d labels for %d rows", len(labels), rows.N))
	}
	cfg = cfg.normalized()
	t := &Tree{kind: kind, leafSize: cfg.LeafSize}
	sec := &sections{points: *rows, ids: make([]int32, rows.N)}
	if labels != nil {
		copy(sec.ids, labels)
	} else {
		for i := range sec.ids {
			sec.ids[i] = int32(i)
		}
	}
	b := &builder{
		rng: rand.New(rand.NewSource(cfg.Seed)), tree: t, sec: sec,
		acc:  make([]float64, rows.D),
		dist: make([]float32, 2*rows.N),
	}
	if kind == BC {
		sec.xcos = make([]uint16, rows.N)
		sec.xsin = make([]uint16, rows.N)
		leaf := min(cfg.LeafSize, rows.N)
		b.leaf = make([]leafPoint, 0, leaf)
		b.leafRows = make([]float32, leaf*rows.D)
	}
	b.build(0, int32(rows.N))
	b.sweepRadii()
	// The arena and the centre table grew by append: keep no slack. A BC
	// tree's centres are copied out of the table anyway.
	t.nodes = trimmed(t.nodes)
	sec.centers = vec.Matrix{Data: b.centers, N: len(t.nodes), D: rows.D}
	if kind == BC {
		sec.centers = t.compactCenters(&sec.centers)
	} else {
		sec.centers.Data = trimmed(b.centers)
	}
	t.cur.Store(sec)
	return t
}

// trimmed returns s in an allocation of exactly its length.
func trimmed[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
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
func (t *Tree) compactCenters(all *vec.Matrix) vec.Matrix {
	t.assignCenterRows()
	kept := vec.NewMatrix((len(t.nodes)+1)/2, all.D)
	copy(kept.Row(0), all.Row(0))
	for i := range t.nodes {
		if n := &t.nodes[i]; !n.isLeaf() {
			copy(kept.Row(int(n.leftRow)), all.Row(i+1))
		}
	}
	return *kept
}

type builder struct {
	rng     *rand.Rand
	tree    *Tree     // whose arena the builder fills
	sec     *sections // the tree's sections: its points and ids are what the builder reorders
	centers []float32 // packed centers, row ni = center of arena node ni

	// Scratch, sized once by BuildOwned so that what a build allocates does
	// not grow with the number of nodes: the centroid accumulator (d), the
	// seed-grow split's two screened distances per point (2n) and one leaf's
	// points and rows (LeafSize, LeafSize x d).
	acc      []float64
	dist     []float32
	leaf     []leafPoint
	leafRows []float32
}

// leafPoint is one point of the BC leaf being filled: its cone pair's codes
// as the tree will store them, the squared radius derived from those, which
// the leaf is ordered by, and where in the leaf the point was before the sort.
type leafPoint struct {
	sqRadius   float64
	xcos, xsin uint16
	id         int32
	from       int32
}

// build recursively constructs the subtree over positions [start, end) of the
// tree's storage. It partitions (and, in BC leaves, sorts) the rows and their
// ids in place and returns the arena index of the subtree root. Nodes are
// appended before their children (preorder); a BC internal node's center is
// filled in afterwards via Lemma 1, and every internal node's radius once the
// whole tree is built (sweepRadii). A leaf measures its radius on entry: BC's
// grids need it.
func (b *builder) build(start, end int32) int32 {
	t, sec := b.tree, b.sec
	d := sec.points.D
	rows := sec.points.Data[int(start)*d : int(end)*d]
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
		if leaf {
			_, maxDist := vec.MaxDistBlock(center, rows)
			t.nodes[ni].radius = maxDist * (1 + radiusSlack)
			if t.kind == BC {
				b.fillLeaf(ni, rows, center)
			}
			t.leaves++
			return ni
		}
	}

	mid := start + int32(partition.SeedGrow(rows, sec.ids[start:end], b.rng, b.dist))
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
	}
	return ni
}

// sweepRadii sets the radius of every internal node once the recursion has
// put every row in its final place: one pass over the leaves compares each
// leaf's rows, while they sit in cache, with the centre of every ancestor
// and keeps each ancestor's largest squared distance, starting from -1 as
// vec.MaxDistBlock does. A maximum does not depend on the order it is taken
// in, so the radius is the float64 MaxDistBlock over the node's block would
// give, at one read of the matrix instead of one per level. The rows are
// screened in float32 against each ancestor's running maximum
// (vec.FarthestBlock), so only a row that may raise it is computed in
// float64.
func (b *builder) sweepRadii() {
	t, sec := b.tree, b.sec
	d := sec.points.D
	maxSq := make([]float64, len(t.nodes))
	path := make([]int32, 0, 64) // the internal nodes above the current one
	var sq [128]float32
	for i := range t.nodes {
		n := &t.nodes[i]
		for len(path) > 0 && t.nodes[path[len(path)-1]].end <= n.start {
			path = path[:len(path)-1]
		}
		if !n.isLeaf() {
			maxSq[i] = -1
			path = append(path, int32(i))
			continue
		}
		for lo := int(n.start); lo < int(n.end); lo += len(sq) {
			hi := min(lo+len(sq), int(n.end))
			rows, out := sec.points.Data[lo*d:hi*d], sq[:hi-lo]
			for _, a := range path {
				_, maxSq[a] = vec.FarthestBlock(b.centers[int(a)*d:(int(a)+1)*d], rows, maxSq[a], out)
			}
		}
	}
	for i := range t.nodes {
		if n := &t.nodes[i]; !n.isLeaf() {
			n.radius = math.Sqrt(maxSq[i]) * (1 + radiusSlack)
		}
	}
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
// order of the r_x those structures imply (vec.ConeGrid.SqRadius), so the
// point-level ball bound prunes in a batch. The structures are coded on the
// leaf's grids (Tree.grid), which the radius and centerNorm set here fix, and
// the order is defined on the codes the tree stores, not on the distances
// they stand for: what Load checks is what the builder sorted by. The codes
// land in the tree's position-indexed arrays at the leaf's range.
//
// The leaf's own radius is not its first point's derived one but the true
// maximum distance, as for every other node — rounded up to float32, which is
// what a stored r_x[0] made of it. A derived radius is an upper bound with
// room in it (a leaf of duplicates derives a small positive one where the
// true radius is zero), and the node-level bound, the frontier's order and
// every counter downstream should not move with that room.
func (b *builder) fillLeaf(ni int32, rows, center []float32) {
	t, sec := b.tree, b.sec
	n := &t.nodes[ni]
	d := len(center)
	ids := sec.ids[n.start:n.end]
	n.radius = float64(up32(n.radius))
	centerNorm := vec.Norm(center)
	n.centerNorm = centerNorm
	grid := sec.grid(n)
	// Coordinates that are not finite leave the centre without a finite norm
	// and the leaf without grids; its codes stay zero (such a tree answers
	// nothing exactly, and Load refuses its node records).
	coded := finite(centerNorm + n.radius)

	pts := b.leaf[:0]
	for i, id := range ids {
		p := leafPoint{id: id, from: int32(i)}
		if coded {
			p.xcos, p.xsin = grid.Encode(vec.ConePair(rows[i*d:(i+1)*d], center, centerNorm))
			p.sqRadius = grid.SqRadius(p.xcos, p.xsin)
		}
		pts = append(pts, p)
	}
	slices.SortStableFunc(pts, func(a, c leafPoint) int { return cmp.Compare(c.sqRadius, a.sqRadius) })
	// The sort moved records, not rows: permute the rows through the scratch.
	old := b.leafRows[:len(rows)]
	copy(old, rows)
	for i, p := range pts {
		copy(rows[i*d:(i+1)*d], old[int(p.from)*d:(int(p.from)+1)*d])
		ids[i] = p.id
		sec.xcos[int(n.start)+i] = p.xcos
		sec.xsin[int(n.start)+i] = p.xsin
	}
}

// up32 returns the smallest float32 not below v.
func up32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}
