package dynamic

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"p2h/internal/balltree"
	"p2h/internal/binio"
	"p2h/internal/vec"
)

// Serialization format: the construction configuration, the full handle
// history (every vector ever inserted plus its liveness bit), then the tree
// snapshot and the delta — the snapshot's handle map and serialized BC-Tree,
// and the insert buffer. Load replays that state exactly, so a restored
// index answers queries bitwise-identically and keeps assigning handles
// where the saved one left off.
var magic = []byte("P2HDY001")

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
	bw.Bytes(magic)
	bw.I32(int32(ix.cfg.LeafSize))
	bw.I64(ix.cfg.Seed)
	bw.F64(ix.cfg.RebuildFraction)
	bw.I32(int32(ix.dim))
	bw.I32(int32(ix.rows.N))
	bw.F32s(ix.rows.Data)
	for _, ok := range ix.alive {
		if ok {
			bw.U8(1)
		} else {
			bw.U8(0)
		}
	}
	if ix.tree == nil {
		bw.U8(0)
	} else {
		bw.U8(1)
		bw.I32(int32(len(ix.treeIDs)))
		bw.I32s(ix.treeIDs)
		// The payload's length is a closed form of the tree's shape, so the
		// tree streams straight through; Save checks it wrote exactly that.
		bw.I64(ix.tree.PayloadBytes())
		if err := ix.tree.Save(bw); err != nil {
			return err
		}
	}
	bw.I32(int32(len(ix.buffer)))
	bw.I32s(ix.buffer)
	return bw.Flush()
}

// Load restores an index written by Save. Corrupt input yields an error
// wrapping binio.ErrCorrupt.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	br.Expect(magic)
	cfg := Config{
		LeafSize:        int(br.I32()),
		Seed:            br.I64(),
		RebuildFraction: br.F64(),
	}
	dim := int(br.I32())
	rows := int(br.I32())
	if err := br.Err(); err != nil {
		return nil, err
	}
	if dim <= 0 || dim > maxSerialDim || rows < 0 ||
		cfg.LeafSize < 0 || cfg.RebuildFraction < 0 || math.IsNaN(cfg.RebuildFraction) {
		br.Fail("bad header: dim=%d rows=%d leafSize=%d rebuild=%v",
			dim, rows, cfg.LeafSize, cfg.RebuildFraction)
		return nil, br.Err()
	}
	if int64(rows)*int64(dim) > maxSerialElems {
		br.Fail("declared size %dx%d exceeds the serialization bound", rows, dim)
		return nil, br.Err()
	}

	ix := &Index{cfg: cfg.normalized(), dim: dim}
	data := br.F32s(rows * dim)
	if rows > 0 && br.Err() != nil {
		return nil, br.Err()
	}
	if data == nil {
		data = []float32{}
	}
	ix.rows = &vec.Matrix{Data: data, N: rows, D: dim}
	flags := br.U8s(rows)
	if br.Err() != nil {
		return nil, br.Err()
	}
	ix.alive = make([]bool, rows)
	for h, flag := range flags {
		switch flag {
		case 0:
		case 1:
			ix.alive[h] = true
			ix.live++
		default:
			br.Fail("handle %d: liveness byte not 0/1", h)
			return nil, br.Err()
		}
	}

	inTree := make([]bool, rows)
	switch br.U8() {
	case 0:
	case 1:
		nids := int(br.I32())
		if br.Err() != nil {
			return nil, br.Err()
		}
		if nids < 1 || nids > rows {
			br.Fail("bad snapshot id count %d for %d handles", nids, rows)
			return nil, br.Err()
		}
		ids := br.I32s(nids)
		if br.Err() != nil {
			return nil, br.Err()
		}
		for _, h := range ids {
			if h < 0 || int(h) >= rows {
				br.Fail("snapshot handle %d out of range", h)
				return nil, br.Err()
			}
			if inTree[h] {
				br.Fail("snapshot handle %d appears twice", h)
				return nil, br.Err()
			}
			inTree[h] = true
			if !ix.alive[h] {
				ix.treeDel++ // a tombstone inside the snapshot
			}
		}
		pn := br.I64()
		if br.Err() != nil {
			return nil, br.Err()
		}
		if pn <= 0 || pn > maxSerialTreeBytes {
			br.Fail("bad snapshot payload length %d", pn)
			return nil, br.Err()
		}
		payload := br.Raw(int(pn))
		if br.Err() != nil {
			return nil, br.Err()
		}
		tree, err := balltree.Load(bytes.NewReader(payload), balltree.BC)
		if err != nil {
			return nil, fmt.Errorf("snapshot tree: %w", err)
		}
		if tree.N() != nids || tree.Dim() != dim {
			return nil, fmt.Errorf("%w: snapshot tree shape %dx%d, want %dx%d",
				binio.ErrCorrupt, tree.N(), tree.Dim(), nids, dim)
		}
		ix.tree = tree
		ix.treeIDs = ids
	default:
		if br.Err() == nil {
			br.Fail("snapshot flag not 0/1")
		}
		return nil, br.Err()
	}

	nbuf := int(br.I32())
	if br.Err() != nil {
		return nil, br.Err()
	}
	if nbuf < 0 || nbuf > rows {
		br.Fail("bad buffer length %d for %d handles", nbuf, rows)
		return nil, br.Err()
	}
	if nbuf > 0 {
		ix.buffer = br.I32s(nbuf)
		if br.Err() != nil {
			return nil, br.Err()
		}
		for _, h := range ix.buffer {
			if h < 0 || int(h) >= rows {
				br.Fail("buffer handle %d out of range", h)
				return nil, br.Err()
			}
			if !ix.alive[h] {
				br.Fail("buffer handle %d is dead (deletes drop buffered handles)", h)
				return nil, br.Err()
			}
			if inTree[h] {
				br.Fail("buffer handle %d already in the snapshot", h)
				return nil, br.Err()
			}
		}
	}

	// Every live handle must be reachable: in the snapshot or the buffer.
	reachable := len(ix.buffer)
	for _, h := range ix.treeIDs {
		if ix.alive[h] {
			reachable++
		}
	}
	if reachable != ix.live {
		br.Fail("live handles %d, reachable %d", ix.live, reachable)
		return nil, br.Err()
	}
	return ix, nil
}
