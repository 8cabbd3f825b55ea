package shard

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"p2h/internal/balltree"
	"p2h/internal/binio"
)

// Serialization format: a header with the global shape, then one
// length-prefixed record per shard (the id map plus the shard tree's own
// serialized payload). The per-shard byte lengths let Load slice the stream
// without parsing tree internals, so shard trees decode in parallel — the
// load-time mirror of the index's query-time fan-out.
var magic = []byte("P2HSH001")

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
	bw.Bytes(magic)
	bw.I32(int32(ix.n))
	bw.I32(int32(ix.d))
	bw.I32(int32(len(ix.trees)))
	bw.I32(int32(ix.workers))
	for si, t := range ix.trees {
		bw.I32(int32(len(ix.ids[si])))
		bw.I32s(ix.ids[si])
		// The payload's length is a closed form of the tree's shape, so the
		// tree streams straight through; Save checks it wrote exactly that.
		bw.I64(t.PayloadBytes())
		if err := t.Save(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load restores an index written by Save. The shard payloads are read
// sequentially (their lengths come from the stream) and decoded in parallel.
// Corrupt input yields an error wrapping binio.ErrCorrupt.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	br.Expect(magic)
	n := int(br.I32())
	d := int(br.I32())
	shards := int(br.I32())
	workers := int(br.I32())
	if err := br.Err(); err != nil {
		return nil, err
	}
	if n <= 0 || d <= 0 || shards < 1 || shards > n || workers < 1 {
		br.Fail("bad header: n=%d d=%d shards=%d workers=%d", n, d, shards, workers)
		return nil, br.Err()
	}
	if int64(n)*int64(d) > maxSerialElems {
		br.Fail("declared size %dx%d exceeds the serialization bound", n, d)
		return nil, br.Err()
	}

	// Allocations below grow with bytes actually read, never with the
	// declared counts alone: a corrupt header claiming 2^31 points or shards
	// must fail at the stream's real end, not reach a multi-GiB make().
	// payloads is appended per record, and the duplicate-id check waits until
	// every id has been read from the stream (bounding n by the input size);
	// the loop itself only range-checks.
	ix := &Index{n: n, d: d, workers: workers}
	var payloads [][]byte
	total := 0
	for si := 0; si < shards; si++ {
		nids := int(br.I32())
		if br.Err() != nil {
			return nil, br.Err()
		}
		if nids < 1 || nids > n {
			br.Fail("shard %d: bad id count %d", si, nids)
			return nil, br.Err()
		}
		ids := br.I32s(nids)
		if br.Err() != nil {
			return nil, br.Err()
		}
		for _, id := range ids {
			if id < 0 || int(id) >= n {
				br.Fail("shard %d: id %d out of range", si, id)
				return nil, br.Err()
			}
		}
		total += nids
		ix.ids = append(ix.ids, ids)

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
	if total != n {
		br.Fail("shards cover %d of %d points", total, n)
		return nil, br.Err()
	}
	seen := make([]bool, n)
	for si, ids := range ix.ids {
		for _, id := range ids {
			if seen[id] {
				br.Fail("shard %d: id %d appears twice", si, id)
				return nil, br.Err()
			}
			seen[id] = true
		}
	}

	// Decode the shard trees in parallel over a bounded pool — like the
	// query fan-out, exactly min(GOMAXPROCS, shards) goroutines pull shard
	// indices from a shared counter, never one goroutine per shard, so a
	// container declaring thousands of shards cannot flood the scheduler.
	ix.trees = make([]*balltree.Tree, shards)
	errs := make([]error, shards)
	decode := func(si int) {
		t, err := balltree.Load(bytes.NewReader(payloads[si]), balltree.BC)
		if err != nil {
			errs[si] = fmt.Errorf("shard %d: %w", si, err)
			return
		}
		if t.N() != len(ix.ids[si]) || t.Dim() != d {
			errs[si] = fmt.Errorf("shard %d: %w: tree shape %dx%d, want %dx%d",
				si, binio.ErrCorrupt, t.N(), t.Dim(), len(ix.ids[si]), d)
			return
		}
		ix.trees[si] = t
	}
	nw := runtime.GOMAXPROCS(0)
	if nw > shards {
		nw = shards
	}
	if nw <= 1 {
		for si := 0; si < shards; si++ {
			decode(si)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(nw)
		for w := 0; w < nw; w++ {
			go func() {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= shards {
						return
					}
					decode(si)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}
