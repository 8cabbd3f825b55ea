package balltree

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"p2h/internal/binio"
	"p2h/internal/vec"
)

// Payload formats, one codec. The layout mirrors the in-memory flat arena:
// header, position->id map (in the holder's id space when the tree was built
// with labels), reordered points, packed centers, columnar node
// arrays. Every array is one contiguous little-endian section that binio moves
// as a block. The magic records the kind:
//
//	P2HBT002  Ball kind: a centre per node; nodes carry radius, range and
//	          both child links; no trailing arrays
//	P2HBC010  BC kind: (nodes+1)/2 centres (the root's, then the left
//	          children's in arena order); nodes carry radius, centerNorm,
//	          range and the right link — the left child is the next node and
//	          its centre's row follows from the links; then xcos/xsin as
//	          uint16 codes on each leaf's grids, which its radius and
//	          centerNorm fix (vec.ConeGrid; r_x is derived from them)
//
// There is one current version per kind: the payloads earlier releases wrote
// — older BC layouts, and either kind with the 8-bit leaf mirror — are named
// in the error that rejects them and are not converted.
var magics = [2]string{Ball: "P2HBT002", BC: "P2HBC010"}

// retiredMagics maps the payload magics earlier releases wrote to what to
// tell someone who still has such a file.
var retiredMagics = map[string]string{
	"P2HBC002": "bctree payload version 2 (float64 point-level arrays)",
	"P2HBC003": "quantized bctree payload version 3 (float64 point-level arrays)",
	"P2HBC004": "bctree payload version 4 (a centre for every node)",
	"P2HBC005": "quantized bctree payload version 5 (a centre for every node)",
	"P2HBC006": "bctree payload version 6 (a stored r_x array)",
	"P2HBC007": "quantized bctree payload version 7 (a stored r_x array)",
	"P2HBC008": "bctree payload version 8 (float32 cone pair)",
	"P2HBC009": "quantized bctree payload version 9 (float32 cone pair)",
	"P2HBC011": "quantized bctree payload version 11 (the 8-bit leaf mirror)",
	"P2HBT003": "quantized balltree payload version 3 (the 8-bit leaf mirror)",
}

// PayloadMagics lists the magic of every payload Load accepts; the root
// package's container tests walk it, so a format bump cannot slip past them.
func PayloadMagics() []string {
	return []string{magics[Ball], magics[BC]}
}

// RetiredPayload returns the error Load refuses a retired payload magic with
// — it names the version found and the ones this build reads — or nil when
// magic is not one an earlier release wrote.
func RetiredPayload(magic string) error {
	what, ok := retiredMagics[magic]
	if !ok {
		return nil
	}
	return fmt.Errorf("%w: %s is a %s, which this build no longer reads (current: %s/%s); rebuild the index and save it again",
		binio.ErrCorrupt, magic, what, magics[Ball], magics[BC])
}

// maxSerialDim guards against corrupt headers allocating absurd buffers.
const maxSerialDim = 1 << 20

// PayloadBytes is the exact number of bytes Save writes, a closed form of the
// tree's shape. A format that embeds the payload behind a length prefix
// (internal/shard, internal/dynamic) writes the prefix from it and streams
// the tree straight through instead of buffering it to learn its length.
func (t *Tree) PayloadBytes() int64 {
	sec := t.sec()
	n, d, nodes := int64(sec.points.N), int64(sec.points.D), int64(len(t.nodes))
	b := 8 /*magic*/ + 5*4 /*header*/ + 4*n /*ids*/ + 4*n*d /*points*/
	if t.kind == Ball {
		b += 4*nodes*d /*centers*/ + nodes*(8 /*radius*/ +4*4 /*range, children*/)
	} else {
		b += 4*((nodes+1)/2)*d /*centers*/ + nodes*(2*8 /*radius, centerNorm*/ +3*4 /*range, right*/) +
			2*2*n /*xcos, xsin*/
	}
	return b
}

// Save writes the tree to w, self-contained so Load can restore it without
// the original data matrix. A BC tree's point-level cone arrays ride along so
// restored trees prune identically.
func (t *Tree) Save(w io.Writer) error {
	sec := t.sec()
	bw := binio.NewWriter(w)
	start := bw.Written()
	bw.Bytes([]byte(magics[t.kind]))
	bw.I32(int32(t.leafSize))
	bw.I32(int32(sec.points.N))
	bw.I32(int32(sec.points.D))
	bw.I32(int32(len(t.nodes)))
	bw.I32(int32(t.leaves))
	bw.I32s(sec.ids)
	bw.F32s(sec.points.Data)
	bw.F32s(sec.centers.Data)
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
		if t.kind == Ball {
			bw.I32(n.leftRow) // the left child's arena index: a Ball row is a node
		}
		bw.I32(n.right)
	}
	if t.kind == BC {
		bw.U16s(sec.xcos)
		bw.U16s(sec.xsin)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if got := bw.Written() - start; got != t.PayloadBytes() {
		return fmt.Errorf("balltree: wrote a %d-byte payload, its closed form says %d", got, t.PayloadBytes())
	}
	return nil
}

// readShape decodes the shape prefix every payload of the given kind starts
// with: the magic, and the leaf size, point count and (lifted)
// dimensionality. A payload of the other kind, a retired version and a
// nonsensical count are refused here, for Load and ReadShape alike.
func readShape(br *binio.Reader, kind Kind) (leafSize, n, d int, err error) {
	magic := string(br.Raw(len(magics[kind])))
	if err := br.Err(); err != nil {
		return 0, 0, 0, err
	}
	if magic != magics[kind] {
		if err := RetiredPayload(magic); err != nil {
			return 0, 0, 0, err
		}
		br.Fail("bad %s magic %q", kind, magic)
		return 0, 0, 0, br.Err()
	}
	leafSize, n, d = int(br.I32()), int(br.I32()), int(br.I32())
	if br.Err() == nil && (leafSize <= 0 || n <= 0 || d <= 0 || d > maxSerialDim) {
		br.Fail("bad header: leafSize=%d n=%d d=%d", leafSize, n, d)
	}
	return leafSize, n, d, br.Err()
}

// ReadShape reads only the shape prefix of a payload of the given kind and
// returns its point count and stored (lifted) dimensionality; the rest of the
// stream stays unread. It refuses what Load refuses by those bytes alone.
func ReadShape(r io.Reader, kind Kind) (n, d int, err error) {
	_, n, d, err = readShape(binio.NewReader(r), kind)
	return n, d, err
}

// EmbeddedRetired is for the shape readers of the formats that embed a BC
// payload behind its length (internal/shard, internal/dynamic): it reads on
// through that length to the embedded payload's magic and returns the error
// Load refuses a retired one with, so that describing a container never
// succeeds where opening it fails by name. Anything else — a stream that ends
// first included — is Load's to judge.
func EmbeddedRetired(br *binio.Reader) error {
	br.I64()
	magic := br.Raw(len(magics[BC]))
	if br.Err() != nil {
		return nil
	}
	return RetiredPayload(string(magic))
}

// Load restores a tree of the given kind written by Save. The stream is
// validated structurally; corrupt input — including a payload of the other
// kind — yields an error wrapping binio.ErrCorrupt. Every id must lie in
// [0, idBound): a holder that embeds labelled trees passes the size of its own
// id space (and checks for itself that no id repeats); zero is a standalone
// tree's bound, its own point count.
//
// Every stored centre must have last coordinate exactly 1, as Build leaves
// it: the ball bounds charge a radius only the query's normal part on the
// strength of it (see Searcher.Search), and there are at most nodes such rows
// to check. The points' last column is trusted geometry like the radii are:
// checking it would be a pass over every page of a mapped file.
//
// Handed an in-place binio.Reader (a mapped container), Load aliases the
// float32, int32 and uint16 sections — ids, points, centres, xcos and xsin —
// where they are aligned (binio.Reader.F32sView) instead of copying them, and the
// tree holds the Reader's Backing with them. The node records are decoded into
// the arena either way, and every section is validated the same way.
func Load(r io.Reader, kind Kind, idBound int) (*Tree, error) {
	br := binio.NewReader(r)
	leafSize, n, d, err := readShape(br, kind)
	if err != nil {
		return nil, err
	}
	nodes := int(br.I32())
	leaves := int(br.I32())
	if err := br.Err(); err != nil {
		return nil, err
	}
	// A node has two children or none, so a tree of L leaves has 2L-1 nodes.
	if leaves < 1 || leaves > n || nodes != 2*leaves-1 {
		br.Fail("bad node counts: nodes=%d leaves=%d n=%d", nodes, leaves, n)
		return nil, br.Err()
	}
	t := &Tree{kind: kind, leafSize: leafSize, leaves: leaves}
	sec := &sections{}
	if idBound == 0 {
		idBound = n
	}
	sec.ids = br.I32sView(n)
	for _, id := range sec.ids {
		if id < 0 || int(id) >= idBound {
			br.Fail("id %d outside [0,%d)", id, idBound)
			break
		}
	}
	data := br.F32sView(n * d)
	// The node columns arrive as two sections — radius (and centerNorm, BC
	// kind) pairs, then range and child links — and are transposed into the
	// arena's records once both are in. A Ball payload has a centre and a
	// left link per node; a BC payload has neither for right children — its
	// (nodes+1)/2 = leaves rows are numbered by assignCenterRows.
	rows, perBound, perLink := nodes, 1, 4
	if kind == BC {
		rows, perBound, perLink = leaves, 2, 3
	}
	centers := br.F32sView(rows * d)
	bounds := br.F64s(nodes * perBound)
	links := br.I32s(nodes * perLink)
	if err := br.Err(); err != nil {
		return nil, err
	}
	sec.points = vec.Matrix{Data: data, N: n, D: d}
	sec.centers = vec.Matrix{Data: centers, N: rows, D: d}
	for i := range rows {
		if v := sec.centers.Row(i)[d-1]; v != 1 {
			br.Fail("centre %d has last coordinate %v, not 1", i, v)
			return nil, br.Err()
		}
	}
	t.nodes = make([]nodeRec, nodes)
	for i := range t.nodes {
		nd := &t.nodes[i]
		nd.radius = bounds[i*perBound]
		link := links[i*perLink : (i+1)*perLink]
		nd.start, nd.end, nd.right = link[0], link[1], link[perLink-1]
		if kind == Ball {
			nd.leftRow = link[2]
		} else {
			nd.centerNorm = bounds[i*perBound+1]
		}
	}
	if kind == BC {
		t.assignCenterRows()
		sec.xcos = br.U16sView(n)
		sec.xsin = br.U16sView(n)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	sec.backing = br.Backing()
	t.cur.Store(sec)
	if err := validateArena(br, t, leaves); err != nil {
		return nil, err
	}
	return t, nil
}

// Adopt makes t serve its point, id, centre and cone sections from m's, where
// m is a tree Load decoded in place from a mapped container holding t — the
// file p2h.SaveFile has just written, say. It adopts them only if m is mapped
// and equal to t: of the same kind and shape, with the same node records and
// every section byte for byte the same. It reports whether it did; otherwise t
// keeps its own. A search in flight finishes on the sections it started
// with, and the ones t gives up are freed once none is reading them. t keeps
// its node records and attributes.
func (t *Tree) Adopt(m *Tree) bool {
	own, in := t.sec(), m.sec()
	if in.backing == nil || m.kind != t.kind || m.leafSize != t.leafSize || m.leaves != t.leaves ||
		in.points.D != own.points.D || in.centers.D != own.centers.D || !slices.Equal(m.nodes, t.nodes) ||
		!sameBytes(in.points.Data, own.points.Data) || !sameBytes(in.ids, own.ids) ||
		!sameBytes(in.centers.Data, own.centers.Data) ||
		!sameBytes(in.xcos, own.xcos) || !sameBytes(in.xsin, own.xsin) {
		return false
	}
	t.cur.Store(in)
	return true
}

// sameBytes reports whether a and b hold the same bytes: a float section
// compares by its bits, NaNs and signed zeros included.
func sameBytes[T float32 | int32 | uint16](a, b []T) bool {
	size := int(unsafe.Sizeof(*new(T)))
	return bytes.Equal(
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), len(a)*size),
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b)*size))
}

// finite reports whether v is an ordinary number. Comparisons against NaN are
// all false, so a NaN radius would slip through range checks written as
// "reject if v < 0" and then poison the bound comparisons — a NaN cone grid,
// vec.BallCutoff's binary search — so every loaded float a bound reads is
// checked explicitly. (The cone codes are integers: on a finite grid every one
// decodes to a number.)
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxNodeBound caps a loaded node's radius and centerNorm. Float32 data in at
// most 2^20 dimensions has norms below 2^139; the cap keeps a corrupt record
// from deriving cone grids that overflow (vec.NewConeGrid).
const maxNodeBound = 0x1p256

// validateArena checks the structural invariants of a loaded arena:
// in-range node fields with finite non-negative radii and norms, the root
// covering [0, n), the preorder shape every search relies on — an internal
// node's left child is the next node (for a Ball payload, the link it stores
// says so) and its right child the node after the left subtree, which also
// makes every node reachable exactly once — children partitioning their
// parent, the declared leaf count, and — BC kind — point-level codes whose
// derived radii (vec.ConeGrid.SqRadius, the value Build sorted by) descend
// within each leaf's slice.
func validateArena(br *binio.Reader, t *Tree, leaves int) error {
	sec := t.sec()
	nodes := int32(len(t.nodes))
	n := int32(sec.points.N)
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.start < 0 || nd.end <= nd.start || nd.end > n {
			br.Fail("node %d range [%d,%d) invalid for n=%d", i, nd.start, nd.end, n)
			return br.Err()
		}
		if !finite(nd.radius) || !finite(nd.centerNorm) || nd.radius < 0 || nd.centerNorm < 0 ||
			nd.radius > maxNodeBound || nd.centerNorm > maxNodeBound {
			br.Fail("node %d radius %v or norm %v negative, not finite or out of range", i, nd.radius, nd.centerNorm)
			return br.Err()
		}
		if (nd.leftRow == noChild) != (nd.right == noChild) {
			br.Fail("node %d half-leaf: left=%d right=%d", i, nd.leftRow, nd.right)
			return br.Err()
		}
		if nd.right != noChild {
			if nd.right <= int32(i)+1 || nd.right >= nodes || (t.kind == Ball && nd.leftRow != int32(i)+1) {
				br.Fail("node %d children %d,%d out of order", i, nd.leftRow, nd.right)
				return br.Err()
			}
		}
	}
	if t.nodes[0].start != 0 || t.nodes[0].end != n {
		br.Fail("root range [%d,%d) != [0,%d)", t.nodes[0].start, t.nodes[0].end, n)
		return br.Err()
	}
	leafCount := 0
	// walk checks the subtree at ni and returns the arena index after it.
	var walk func(ni int32) int32
	walk = func(ni int32) int32 {
		nd := &t.nodes[ni]
		if nd.isLeaf() {
			leafCount++
			if t.kind == BC {
				grid := sec.grid(nd)
				prev := math.Inf(1)
				for p := nd.start; p < nd.end; p++ {
					sq := grid.SqRadius(sec.xcos[p], sec.xsin[p])
					if !(sq <= prev) {
						br.Fail("leaf %d derived radii not descending at position %d", ni, p)
						break
					}
					prev = sq
				}
			}
			return ni + 1
		}
		l, r := &t.nodes[ni+1], &t.nodes[nd.right]
		if l.start != nd.start || r.end != nd.end || l.end != r.start {
			br.Fail("children do not partition [%d,%d)", nd.start, nd.end)
			return nodes
		}
		if after := walk(ni + 1); after != nd.right {
			br.Fail("node %d: right child %d does not follow the left subtree", ni, nd.right)
			return nodes
		}
		return walk(nd.right)
	}
	// A failed subtree reports nodes as its end, so the first failure stands.
	if after := walk(0); after != nodes {
		br.Fail("%d nodes unreachable from root", nodes-after)
	}
	if err := br.Err(); err != nil {
		return err
	}
	if leafCount != leaves {
		br.Fail("leaf count %d != declared %d", leafCount, leaves)
		return br.Err()
	}
	return nil
}
