package exec

import (
	"sync"
	"sync/atomic"

	"p2h/internal/vec"
)

// ForChunks splits rows [0, n) into min(parts, n) contiguous chunks of
// near-equal size and runs fn(lo, hi) on each — on the calling goroutine when
// there is one chunk, else one goroutine per chunk — returning once every
// chunk has finished. The split is a function of n and parts alone, so the
// queries sharing a batched traversal never depend on scheduling. It returns
// the error of the lowest failing chunk; a panic inside a chunk is re-raised
// in the caller after the others have finished, so it reaches whoever
// submitted the batch instead of killing the process from a bare goroutine.
func ForChunks(n, parts int, fn func(lo, hi int) error) error {
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		if n <= 0 {
			return nil
		}
		return fn(0, n)
	}
	errs := make([]error, parts)
	panics := make([]any, parts)
	var wg sync.WaitGroup
	for c := 0; c < parts; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() { panics[c] = recover() }()
			errs[c] = fn(c*n/parts, (c+1)*n/parts)
		}(c)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach runs fn(i) for every i in [0, n) over min(workers, n) goroutines —
// on the calling goroutine when that is one, never one goroutine per item —
// which pull indices from a shared counter, so items of uneven cost (shards
// of different sizes, queries of different depths) keep every worker busy.
// As in ForChunks, a panic inside fn is re-raised in the caller once every
// worker has stopped, instead of killing the process from a bare goroutine.
func ForEach(n, workers int, fn func(i int)) {
	nw := min(workers, n)
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	panics := make([]any, nw)
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Pool is a typed free list over sync.Pool. The zero value is ready to use;
// Get returns a zero-valued *T when the pool is empty, so owners re-bind any
// per-owner fields (e.g. the tree pointer) after Get.
type Pool[T any] struct {
	p sync.Pool
}

// Get returns a pooled or freshly zero-allocated *T.
func (p *Pool[T]) Get() *T {
	if v := p.p.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// Put recycles x for a later Get.
func (p *Pool[T]) Put(x *T) { p.p.Put(x) }

// BatchScratch holds the reusable state of the tree walk that serves a group
// of queries at once: the active-set arena the recursive walk carves
// per-node segments from, the queries as the multi-query kernel reads them,
// and the output buffers of the leaf kernels. A zero value is ready; all
// storage grows on demand and is retained across runs, so a pooled
// BatchScratch reaches a zero-allocation steady state.
type BatchScratch struct {
	// Active-set arena: the walk allocates one (act, ips) segment per child
	// per node, strictly LIFO with the recursion, via Mark/Alloc/Release.
	act  []int32
	ips  []float64
	mark int

	dists []float64 // leaf kernel output, reused across leaves
	cuts  []int     // per-active-query leaf prefixes, reused across leaves

	// Wide is the group's queries in the multi-query kernel's form (widened
	// once per call where the assembly tile runs); the owner Resets it.
	Wide vec.Queries
}

// Reset rewinds the arena for a new walk, also after one a panic left
// mid-recursion. Storage from earlier walks is retained.
func (b *BatchScratch) Reset() { b.mark = 0 }

// Mark returns the current arena watermark, to be passed to Release once the
// segments allocated after it are dead.
func (b *BatchScratch) Mark() int { return b.mark }

// Alloc carves a fresh (act, ips) segment of n entries from the arena.
// Segments are valid until the matching Release; growth leaves earlier
// segments on the superseded backing arrays, which their holders' stack
// frames keep alive.
func (b *BatchScratch) Alloc(n int) ([]int32, []float64) {
	lo := b.mark
	hi := lo + n
	if hi > len(b.act) {
		size := 2*len(b.act) + n
		b.act = make([]int32, size)
		b.ips = make([]float64, size)
	}
	b.mark = hi
	return b.act[lo:hi:hi], b.ips[lo:hi:hi]
}

// Release rewinds the arena to a watermark previously returned by Mark.
func (b *BatchScratch) Release(mark int) { b.mark = mark }

// Cuts returns a buffer of n leaf prefixes, reused across leaves.
func (b *BatchScratch) Cuts(n int) []int {
	if cap(b.cuts) < n {
		b.cuts = make([]int, n)
	}
	return b.cuts[:n]
}

// Dists returns a distance buffer of n entries for the leaf kernels, reused
// across leaves.
func (b *BatchScratch) Dists(n int) []float64 {
	if cap(b.dists) < n {
		b.dists = make([]float64, n)
	}
	return b.dists[:n]
}
