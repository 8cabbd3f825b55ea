package shard

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"p2h/internal/balltree"
	"p2h/internal/binio"
	"p2h/internal/exec"
)

// Serialization format P2HSH002: a header with the global shape, then one
// length-prefixed record per shard, the shard tree's own serialized payload.
// There is no id section: a shard tree's ids are global, so the payload's id
// map is the shard's membership. The per-shard byte lengths let Load slice the
// stream without parsing tree internals, so shard trees decode in parallel —
// the load-time mirror of the index's query-time fan-out. There is one current
// version: P2HSH001, which carried a shard-local -> global id map beside every
// tree, is refused by name and not converted.
const (
	magic        = "P2HSH002"
	retiredMagic = "P2HSH001"
)

// RetiredPayload returns the error Load refuses the retired payload magic
// with — it names the version found and the one this build reads — or nil
// when found is not one an earlier release wrote.
func RetiredPayload(found string) error {
	if found != retiredMagic {
		return nil
	}
	return fmt.Errorf("%w: %s is a sharded payload version 1 (an id map beside every shard tree), which this build no longer reads (current: %s); rebuild the index and save it again",
		binio.ErrCorrupt, found, magic)
}

// maxSerialShardBytes bounds one shard payload and maxSerialElems the
// declared global size against corrupt headers allocating absurd buffers: a
// bad length fails as corrupt instead of reaching a make() that would panic.
const (
	maxSerialShardBytes = 1 << 30
	maxSerialElems      = 1 << 31 // 8 GiB of float32 — beyond any real index
)

// Save writes the index to w, self-contained so Load can restore it without
// the original data matrix.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(magic))
	bw.I32(int32(ix.n))
	bw.I32(int32(ix.d))
	bw.I32(int32(len(ix.trees)))
	bw.I32(int32(ix.workers))
	for _, t := range ix.trees {
		// The payload's length is a closed form of the tree's shape, so the
		// tree streams straight through; Save checks it wrote exactly that.
		bw.I64(t.PayloadBytes())
		if err := t.Save(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readShape decodes the payload's shape prefix — everything ahead of the first
// shard record: the magic, the global point count and (lifted) dimensionality,
// the shard count and the worker bound.
func readShape(br *binio.Reader) (n, d, shards, workers int, err error) {
	found := string(br.Raw(len(magic)))
	if err := br.Err(); err != nil {
		return 0, 0, 0, 0, err
	}
	if found != magic {
		if err := RetiredPayload(found); err != nil {
			return 0, 0, 0, 0, err
		}
		br.Fail("bad sharded magic %q", found)
		return 0, 0, 0, 0, br.Err()
	}
	n, d, shards, workers = int(br.I32()), int(br.I32()), int(br.I32()), int(br.I32())
	if br.Err() == nil && (n <= 0 || d <= 0 || shards < 1 || shards > n || workers < 1) {
		br.Fail("bad header: n=%d d=%d shards=%d workers=%d", n, d, shards, workers)
	}
	return n, d, shards, workers, br.Err()
}

// ReadShape reads only the shape prefix of a payload and returns its point
// count and stored (lifted) dimensionality, refusing what Load refuses by
// those bytes alone — and, when the stream reaches that far, a first shard
// tree of a retired version (balltree.EmbeddedRetired). The rest stays unread.
func ReadShape(r io.Reader) (n, d int, err error) {
	br := binio.NewReader(r)
	if n, d, _, _, err = readShape(br); err != nil {
		return 0, 0, err
	}
	return n, d, balltree.EmbeddedRetired(br)
}

// Load restores an index written by Save. The shard payloads are read
// sequentially (their lengths come from the stream) and decoded in parallel.
// Corrupt input yields an error wrapping binio.ErrCorrupt.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	n, d, shards, workers, err := readShape(br)
	if err != nil {
		return nil, err
	}
	if int64(n)*int64(d) > maxSerialElems {
		br.Fail("declared size %dx%d exceeds the serialization bound", n, d)
		return nil, br.Err()
	}

	// Allocations below grow with bytes actually read, never with the
	// declared counts alone: a corrupt header claiming 2^31 points or shards
	// must fail at the stream's real end, not reach a multi-GiB make().
	// payloads is appended per record.
	ix := &Index{n: n, d: d, workers: workers}
	var payloads [][]byte
	for si := 0; si < shards; si++ {
		pn := br.I64()
		if br.Err() != nil {
			return nil, br.Err()
		}
		if pn <= 0 || pn > maxSerialShardBytes {
			br.Fail("shard %d: bad payload length %d", si, pn)
			return nil, br.Err()
		}
		payloads = append(payloads, br.Raw(int(pn)))
		if br.Err() != nil {
			return nil, br.Err()
		}
	}

	// Decode the shard trees in parallel over the bounded pool Build builds
	// them with. Each tree range-checks its ids against the global n.
	ix.trees = make([]*balltree.Tree, shards)
	errs := make([]error, shards)
	exec.ForEach(shards, runtime.GOMAXPROCS(0), func(si int) {
		t, err := balltree.Load(bytes.NewReader(payloads[si]), balltree.BC, n)
		if err != nil {
			errs[si] = fmt.Errorf("shard %d: %w", si, err)
			return
		}
		if t.Dim() != d {
			errs[si] = fmt.Errorf("shard %d: %w: tree dimension %d, want %d", si, binio.ErrCorrupt, t.Dim(), d)
			return
		}
		ix.trees[si] = t
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The shards must partition [0, n). The ids have all been read from the
	// stream by now, so the table below is bounded by the input's size.
	total := 0
	for _, t := range ix.trees {
		total += t.N()
	}
	if total != n {
		br.Fail("shards cover %d of %d points", total, n)
		return nil, br.Err()
	}
	seen := make([]bool, n)
	for si, t := range ix.trees {
		_, ids := t.Rows()
		for _, id := range ids {
			if seen[id] {
				br.Fail("shard %d: id %d appears twice", si, id)
				return nil, br.Err()
			}
			seen[id] = true
		}
	}
	return ix, nil
}
