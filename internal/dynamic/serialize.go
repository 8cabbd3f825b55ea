package dynamic

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"p2h/internal/balltree"
	"p2h/internal/binio"
	"p2h/internal/core"
	"p2h/internal/vec"
)

// Serialization format P2HDY005, one section per field of the index:
//
//	magic, leafSize i32, seed i64, compactFraction f64, dim i32
//	handles i32, live i32, then ⌈handles/64⌉ u64 liveness words: bit h%64
//	    of word h/64 is set while handle h is live, no bit at or past
//	    handles is set, and live counts the set bits
//	0-3 zero bytes, so that the tree payload below starts on a 4-byte
//	    boundary of this payload
//	snapshot flag u8; when 1: the BC-Tree payload's length i64 and the
//	    payload itself, whose id map holds the snapshot's handles
//	base i32, then the delta: (handles - base) rows of dim float32
//
// Every live vector is in the file once — in the embedded tree or in the
// delta — and a deleted one only until the rebuild that follows its delete.
// Load replays that state exactly, so a restored index answers queries
// bitwise-identically and keeps assigning handles where the saved one left
// off. A container starts this payload aligned, so the embedded tree's
// sections are aligned too and an in-place decode (p2h.Open) serves them
// from the mapped file. There is one current version: P2HDY001, which also
// stored every vector ever inserted in handle order, P2HDY002, which kept a
// tree-local id -> handle map beside the tree, P2HDY003, which embedded the
// tree unpadded (and in a retired format), and P2HDY004, which kept a
// liveness byte per handle and a separate rebuild threshold, are refused by
// name and not converted.
const magic = "P2HDY005"

var retiredMagics = map[string]string{
	"P2HDY001": "dynamic payload version 1 (full handle history)",
	"P2HDY002": "dynamic payload version 2 (a handle map beside the snapshot tree)",
	"P2HDY003": "dynamic payload version 3 (an unaligned snapshot tree)",
	"P2HDY004": "dynamic payload version 4 (a liveness byte per handle)",
}

// headBytes is the size of the fields ahead of the liveness words, and
// treePad(handles) the number of zero bytes after the words of that many
// handles that puts the tree payload — behind the snapshot flag and its
// length — on a 4-byte boundary.
const headBytes = len(magic) + 4 + 8 + 8 + 4 + 4 + 4

func treePad(handles int) int { return -(headBytes + 8*core.BitmapWords(handles) + 1 + 8) & 3 }

// RetiredPayload returns the error Load refuses a retired payload magic
// with — it names the version found and the one this build reads — or nil
// when found is not one an earlier release wrote.
func RetiredPayload(found string) error {
	what, ok := retiredMagics[found]
	if !ok {
		return nil
	}
	return fmt.Errorf("%w: %s is a %s, which this build no longer reads (current: %s); rebuild the index and save it again",
		binio.ErrCorrupt, found, what, magic)
}

// maxSerialDim, maxSerialElems and maxSerialTreeBytes guard corrupt headers
// against absurd allocations: a declared shape whose element count exceeds
// the bound fails as corrupt instead of reaching a make() that would panic.
const (
	maxSerialDim       = 1 << 20
	maxSerialElems     = 1 << 31 // 8 GiB of float32 — beyond any real index
	maxSerialTreeBytes = 1 << 30
)

// Save writes the index to w, self-contained so Load can restore it without
// replaying the original mutation history.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(magic))
	bw.I32(int32(ix.cfg.LeafSize))
	bw.I64(ix.cfg.Seed)
	bw.F64(ix.cfg.CompactFraction)
	bw.I32(int32(ix.dim))
	bw.I32(int32(ix.Handles()))
	bw.I32(int32(ix.nlive))
	for _, w := range ix.live {
		bw.I64(int64(w))
	}
	for range treePad(ix.Handles()) {
		bw.U8(0)
	}
	if ix.tree == nil {
		bw.U8(0)
	} else {
		bw.U8(1)
		// The payload's length is a closed form of the tree's shape, so the
		// tree streams straight through; Save checks it wrote exactly that.
		bw.I64(ix.tree.PayloadBytes())
		if err := ix.tree.Save(bw); err != nil {
			return err
		}
	}
	bw.I32(int32(ix.base))
	bw.F32s(ix.delta.Data[:ix.delta.N*ix.dim])
	return bw.Flush()
}

// readShape decodes the payload up to the snapshot flag: the magic, the
// configuration, the (lifted) dimensionality, the handle and live counts, the
// liveness words and the padding after them. The returned index holds exactly
// that, and the handle count comes beside it: the index derives its own from
// the delta, which is not read yet.
func readShape(br *binio.Reader) (*Index, int, error) {
	found := string(br.Raw(len(magic)))
	if err := br.Err(); err != nil {
		return nil, 0, err
	}
	if found != magic {
		if err := RetiredPayload(found); err != nil {
			return nil, 0, err
		}
		br.Fail("bad dynamic magic %q", found)
		return nil, 0, br.Err()
	}
	cfg := Config{
		LeafSize:        int(br.I32()),
		Seed:            br.I64(),
		CompactFraction: br.F64(),
	}
	dim := int(br.I32())
	handles := int(br.I32())
	nlive := int(br.I32())
	if err := br.Err(); err != nil {
		return nil, 0, err
	}
	if dim <= 0 || dim > maxSerialDim || handles < 0 || nlive < 0 || nlive > handles ||
		cfg.LeafSize < 0 || !(cfg.CompactFraction > 0) || math.IsInf(cfg.CompactFraction, 0) {
		br.Fail("bad header: dim=%d handles=%d live=%d leafSize=%d compact=%v",
			dim, handles, nlive, cfg.LeafSize, cfg.CompactFraction)
		return nil, 0, br.Err()
	}

	ix := &Index{cfg: cfg, dim: dim, nlive: nlive}
	raw := br.U8s(8 * core.BitmapWords(handles))
	if br.Err() != nil {
		return nil, 0, br.Err()
	}
	ix.live = make(core.Bitmap, core.BitmapWords(handles))
	set := 0
	for w := range ix.live {
		ix.live[w] = binary.LittleEndian.Uint64(raw[8*w:])
		set += bits.OnesCount64(ix.live[w])
	}
	if tail := handles & 63; tail != 0 && ix.live[len(ix.live)-1]>>tail != 0 {
		br.Fail("a liveness bit is set at or past the %d handles issued", handles)
		return nil, 0, br.Err()
	}
	if set != nlive {
		br.Fail("%d liveness bits set, live count %d", set, nlive)
		return nil, 0, br.Err()
	}
	for _, b := range br.Raw(treePad(handles)) {
		if b != 0 {
			br.Fail("padding after the liveness words not zero")
		}
	}
	return ix, handles, br.Err()
}

// ReadShape reads only the head of a payload — its shape prefix and the
// liveness words (and padding) that follow it directly, which is what says
// how many points are live — and returns that count and the stored (lifted)
// dimensionality. It refuses what Load refuses by those bytes alone and, when
// a snapshot tree follows, one of a retired version
// (balltree.EmbeddedRetired). The vectors stay unread.
func ReadShape(r io.Reader) (n, d int, err error) {
	br := binio.NewReader(r)
	ix, _, err := readShape(br)
	if err != nil {
		return 0, 0, err
	}
	if br.U8() == 1 {
		err = balltree.EmbeddedRetired(br)
	}
	return ix.nlive, ix.dim, err
}

// Load restores an index written by Save. Corrupt input yields an error
// wrapping binio.ErrCorrupt; that includes a delta row whose last coordinate
// is not the lift's 1. The snapshot tree's points are trusted as
// balltree.Load trusts them, and a compaction rewrites their last coordinate.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	ix, handles, err := readShape(br)
	if err != nil {
		return nil, err
	}
	dim := ix.dim

	switch br.U8() {
	case 0:
	case 1:
		pn := br.I64()
		if br.Err() != nil {
			return nil, br.Err()
		}
		if pn <= 0 || pn > maxSerialTreeBytes || handles == 0 {
			br.Fail("bad snapshot payload length %d for %d handles", pn, handles)
			return nil, br.Err()
		}
		// The tree decodes straight off the container's stream; what it
		// consumed must be what the prefix declared.
		start := br.Consumed()
		tree, err := balltree.Load(br, balltree.BC, handles)
		if err != nil {
			return nil, fmt.Errorf("snapshot tree: %w", err)
		}
		if got := br.Consumed() - start; got != pn {
			br.Fail("snapshot payload declared %d bytes, decoded %d", pn, got)
			return nil, br.Err()
		}
		if tree.Dim() != dim {
			br.Fail("snapshot tree dimension %d, want %d", tree.Dim(), dim)
			return nil, br.Err()
		}
		ix.tree = tree
	default:
		if br.Err() == nil {
			br.Fail("snapshot flag not 0/1")
		}
		return nil, br.Err()
	}

	ix.base = int(br.I32())
	if br.Err() != nil {
		return nil, br.Err()
	}
	if ix.base < 0 || ix.base > handles {
		br.Fail("delta base %d outside the %d handles issued", ix.base, handles)
		return nil, br.Err()
	}
	if int64(handles-ix.base)*int64(dim) > maxSerialElems {
		br.Fail("declared delta %dx%d exceeds the serialization bound", handles-ix.base, dim)
		return nil, br.Err()
	}
	// The snapshot's handles are distinct and sit below the delta, so no
	// handle is stored twice. The tree has range-checked them against handles,
	// which the liveness section bounds by the input's size.
	reachable := 0
	if ix.tree != nil {
		seen := make([]bool, ix.base)
		_, snapshot := ix.tree.Rows()
		for _, h := range snapshot {
			if int(h) >= ix.base || seen[h] {
				br.Fail("snapshot handle %d repeats or is not below the delta base %d", h, ix.base)
				return nil, br.Err()
			}
			seen[h] = true
			if ix.live.Has(h) {
				reachable++
			} else {
				ix.treeDel++ // a tombstone inside the snapshot
			}
		}
	}
	for h := ix.base; h < handles; h++ {
		if ix.live.Has(int32(h)) {
			reachable++
		}
	}
	// Every live handle must be reachable: in the snapshot or the delta.
	if reachable != ix.nlive {
		br.Fail("live handles %d, reachable %d", ix.nlive, reachable)
		return nil, br.Err()
	}
	data := br.F32s((handles - ix.base) * dim)
	if br.Err() != nil {
		return nil, br.Err()
	}
	// Delta rows are lifted (p; 1) like every tree row: a compaction builds
	// a tree over them, and the tree's ball bounds rest on that last 1.
	for r := dim - 1; r < len(data); r += dim {
		if data[r] != 1 {
			br.Fail("delta row %d has last coordinate %v, not 1", r/dim, data[r])
			return nil, br.Err()
		}
	}
	ix.delta = &vec.Matrix{Data: data, N: handles - ix.base, D: dim}
	return ix, nil
}
