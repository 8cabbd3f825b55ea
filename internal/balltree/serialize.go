package balltree

import (
	"io"
	"math"

	"p2h/internal/binio"
	"p2h/internal/quant"
	"p2h/internal/vec"
)

// Payload formats, one codec. The layout mirrors the in-memory flat arena:
// header, position->id map, reordered points, packed centers, columnar node
// arrays. The magic records the kind and whether a quantization section
// follows:
//
//	P2HBT002  Ball kind: nodes carry radius only, no trailing arrays
//	P2HBT003  P2HBT002 plus the quantization section
//	P2HBC002  BC kind: nodes carry radius and centerNorm, then rx/xcos/xsin
//	P2HBC003  P2HBC002 plus the quantization section
//
// The quantization section (grid tables and the 8-bit code mirror) is the
// same for both kinds. Save writes version 3 only when the tree is quantized,
// so unquantized files stay readable by older code.
var magics = [2][2]string{
	Ball: {"P2HBT002", "P2HBT003"},
	BC:   {"P2HBC002", "P2HBC003"},
}

// maxSerialDim guards against corrupt headers allocating absurd buffers.
const maxSerialDim = 1 << 20

// Save writes the tree to w, self-contained so Load can restore it without
// the original data matrix. A BC tree's point-level ball and cone arrays ride
// along so restored trees prune identically.
func (t *Tree) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	m := magics[t.kind][0]
	if t.qz != nil {
		m = magics[t.kind][1]
	}
	bw.Bytes([]byte(m))
	bw.I32(int32(t.leafSize))
	bw.I32(int32(t.points.N))
	bw.I32(int32(t.points.D))
	bw.I32(int32(len(t.nodes)))
	bw.I32(int32(t.leaves))
	bw.I32s(t.ids)
	bw.F32s(t.points.Data)
	bw.F32s(t.centers.Data)
	for i := range t.nodes {
		bw.F64(t.nodes[i].radius)
		if t.kind == BC {
			bw.F64(t.nodes[i].centerNorm)
		}
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		bw.I32(n.start)
		bw.I32(n.end)
		bw.I32(n.left)
		bw.I32(n.right)
	}
	if t.kind == BC {
		bw.F64s(t.rx)
		bw.F64s(t.xcos)
		bw.F64s(t.xsin)
	}
	if t.qz != nil {
		quant.WriteSection(bw, t.qz, t.codes)
	}
	return bw.Flush()
}

// Load restores a tree of the given kind written by Save. The stream is
// validated structurally; corrupt input — including a payload of the other
// kind — yields an error wrapping binio.ErrCorrupt.
func Load(r io.Reader, kind Kind) (*Tree, error) {
	br := binio.NewReader(r)
	magic := string(br.Raw(len(magics[kind][0])))
	if err := br.Err(); err != nil {
		return nil, err
	}
	v3 := magic == magics[kind][1]
	if !v3 && magic != magics[kind][0] {
		br.Fail("bad %s magic %q", kind, magic)
		return nil, br.Err()
	}

	leafSize := int(br.I32())
	n := int(br.I32())
	d := int(br.I32())
	nodes := int(br.I32())
	leaves := int(br.I32())
	if err := br.Err(); err != nil {
		return nil, err
	}
	if leafSize <= 0 || n <= 0 || d <= 0 || d > maxSerialDim {
		br.Fail("bad header: leafSize=%d n=%d d=%d", leafSize, n, d)
		return nil, br.Err()
	}
	if nodes < 1 || nodes > 2*n || leaves < 1 || leaves > nodes {
		br.Fail("bad node counts: nodes=%d leaves=%d n=%d", nodes, leaves, n)
		return nil, br.Err()
	}
	t := &Tree{kind: kind, leafSize: leafSize, leaves: leaves}
	t.ids = br.I32s(n)
	if br.Err() == nil {
		for _, id := range t.ids {
			if id < 0 || int(id) >= n {
				br.Fail("id %d out of range", id)
				break
			}
		}
	}
	data := br.F32s(n * d)
	centers := br.F32s(nodes * d)
	if err := br.Err(); err != nil {
		return nil, err
	}
	t.points = &vec.Matrix{Data: data, N: n, D: d}
	t.centers = &vec.Matrix{Data: centers, N: nodes, D: d}
	t.nodes = make([]nodeRec, nodes)
	for i := range t.nodes {
		t.nodes[i].radius = br.F64()
		if kind == BC {
			t.nodes[i].centerNorm = br.F64()
		}
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		nd.start = br.I32()
		nd.end = br.I32()
		nd.left = br.I32()
		nd.right = br.I32()
	}
	if kind == BC {
		t.rx = br.F64s(n)
		t.xcos = br.F64s(n)
		t.xsin = br.F64s(n)
	}
	if v3 && br.Err() == nil {
		t.qz, t.codes = quant.ReadSection(br, t.points)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if err := validateArena(br, t, leaves); err != nil {
		return nil, err
	}
	return t, nil
}

// finite reports whether v is an ordinary number. Comparisons against NaN are
// all false, so a NaN radius would slip through range checks written as
// "reject if v < 0" and then poison the bound comparisons and
// vec.BallCutoff's binary search — every loaded float a bound reads is
// checked explicitly.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateArena checks the structural invariants of a loaded arena:
// in-range node fields with finite non-negative radii and norms, the root
// covering [0, n), children partitioning their parent at strictly larger
// arena indices, every node reachable from the root exactly once with the
// declared leaf count, and — BC kind — finite point-level arrays with
// descending radii within each leaf's slice.
func validateArena(br *binio.Reader, t *Tree, leaves int) error {
	nodes := int32(len(t.nodes))
	n := int32(t.points.N)
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.start < 0 || nd.end <= nd.start || nd.end > n {
			br.Fail("node %d range [%d,%d) invalid for n=%d", i, nd.start, nd.end, n)
			return br.Err()
		}
		if !finite(nd.radius) || !finite(nd.centerNorm) || nd.radius < 0 || nd.centerNorm < 0 {
			br.Fail("node %d radius %v or norm %v negative or not finite", i, nd.radius, nd.centerNorm)
			return br.Err()
		}
		if (nd.left == noChild) != (nd.right == noChild) {
			br.Fail("node %d half-leaf: left=%d right=%d", i, nd.left, nd.right)
			return br.Err()
		}
		if nd.left != noChild {
			if nd.left <= int32(i) || nd.left >= nodes || nd.right <= int32(i) || nd.right >= nodes {
				br.Fail("node %d children %d,%d out of order", i, nd.left, nd.right)
				return br.Err()
			}
		}
	}
	if t.nodes[0].start != 0 || t.nodes[0].end != n {
		br.Fail("root range [%d,%d) != [0,%d)", t.nodes[0].start, t.nodes[0].end, n)
		return br.Err()
	}
	for p := range t.rx {
		if !finite(t.rx[p]) || !finite(t.xcos[p]) || !finite(t.xsin[p]) {
			br.Fail("point-level structures at position %d not finite", p)
			return br.Err()
		}
	}
	visited := make([]bool, nodes)
	leafCount := 0
	var walk func(ni int32)
	walk = func(ni int32) {
		if br.Err() != nil {
			return
		}
		if visited[ni] {
			br.Fail("node %d reachable twice", ni)
			return
		}
		visited[ni] = true
		nd := &t.nodes[ni]
		if nd.isLeaf() {
			leafCount++
			if t.kind == BC {
				for p := nd.start + 1; p < nd.end; p++ {
					if !(t.rx[p] <= t.rx[p-1]) {
						br.Fail("leaf %d radii not descending at position %d", ni, p)
						return
					}
				}
			}
			return
		}
		l, r := &t.nodes[nd.left], &t.nodes[nd.right]
		if l.start != nd.start || r.end != nd.end || l.end != r.start {
			br.Fail("children do not partition [%d,%d)", nd.start, nd.end)
			return
		}
		walk(nd.left)
		walk(nd.right)
	}
	walk(0)
	if err := br.Err(); err != nil {
		return err
	}
	for i, ok := range visited {
		if !ok {
			br.Fail("node %d unreachable from root", i)
			return br.Err()
		}
	}
	if leafCount != leaves {
		br.Fail("leaf count %d != declared %d", leafCount, leaves)
		return br.Err()
	}
	return nil
}
