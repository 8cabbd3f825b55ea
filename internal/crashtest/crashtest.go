// Package crashtest is the durability proving ground for the dynamic
// index's write-ahead log. Its tests simulate crashes by truncating a real
// WAL file at randomized byte offsets — the on-disk prefix a process kill
// can leave behind — and assert that recovery restores exactly the
// acknowledged prefix: byte-identical index state, no acknowledged write
// lost, no torn tail mistaken for history.
//
// The package exports the small pieces the tests share (a scripted
// mutation type, a deterministic script generator, and the byte-offset
// ledger that maps kill points to durable-op prefixes) so the daemon-level
// crash test under cmd/p2hd can reuse the same vocabulary.
package crashtest

import (
	"fmt"
	"math/rand"

	"p2h"
)

// Op is one scripted mutation against a dynamic index.
type Op struct {
	// Delete selects the operation; false means insert.
	Delete bool
	// Vec is the insert payload (raw, unlifted width).
	Vec []float32
	// Handle is the delete target, valid and live at the op's position in
	// the script.
	Handle int32
}

// Script generates n mutations for an index currently holding handles
// [0, base) all live, with the given raw dimensionality. Deletes always
// target a handle that is live at that point of the script and inserts are
// assigned sequential handles, so the script replays identically against
// any index in that starting state. delFrac is the probability of a delete
// while at least two live handles remain.
func Script(rng *rand.Rand, dim, base, n int, delFrac float64) []Op {
	live := make([]int32, base)
	for i := range live {
		live[i] = int32(i)
	}
	next := int32(base)
	ops := make([]Op, 0, n)
	for len(ops) < n {
		if len(live) >= 2 && rng.Float64() < delFrac {
			i := rng.Intn(len(live))
			h := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ops = append(ops, Op{Delete: true, Handle: h})
			continue
		}
		v := make([]float32, dim)
		for i := range v {
			v[i] = rng.Float32()*2 - 1
		}
		ops = append(ops, Op{Vec: v, Handle: next})
		live = append(live, next)
		next++
	}
	return ops
}

// Apply runs one op through srv, a Server over a dynamic index with a WAL
// attached — the path the daemon runs, which mutates in memory, appends to
// the log and waits for the commit group's fsync, in that order — and checks
// it landed as scripted: the insert got the scripted handle, the delete
// found its handle live.
func Apply(srv *p2h.Server, op Op) error {
	if op.Delete {
		ok, err := srv.Delete(op.Handle)
		if err == nil && !ok {
			err = fmt.Errorf("crashtest: scripted delete of handle %d found it dead", op.Handle)
		}
		return err
	}
	h, err := srv.Insert(op.Vec)
	if err == nil && h != op.Handle {
		err = fmt.Errorf("crashtest: insert got handle %d, script expected %d", h, op.Handle)
	}
	return err
}

// Ledger maps WAL byte offsets to durable-op prefixes. Offsets[i] is the
// log's size after op i was appended; a crash that preserves `off` bytes of
// the log makes exactly Durable(off) ops recoverable — later records are
// missing or torn, and a torn record was never acknowledged.
type Ledger struct {
	Offsets []int64
}

// Durable reports how many scripted ops are fully contained in the first
// off bytes of the log.
func (l Ledger) Durable(off int64) int {
	k := 0
	for k < len(l.Offsets) && l.Offsets[k] <= off {
		k++
	}
	return k
}
