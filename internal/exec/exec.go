package exec

import (
	"sync"
	"sync/atomic"

	"p2h/internal/core"
	"p2h/internal/vec"
)

// Searcher is a reusable single-query executor over one index. Search
// appends the top-k results (ascending (Dist, ID)) to dst and returns the
// extended slice; with a recycled dst and pooled scratch a steady-state call
// performs no allocations.
type Searcher interface {
	Search(q []float32, opts core.SearchOptions, dst []core.Result) ([]core.Result, core.Stats)
}

// Eligible reports whether a batch of queries sharing opts can run through
// the shared batched traversal. Budgeted queries keep per-query traversal
// semantics (the candidate budget is defined relative to a single query's
// visit order), and Filter/Profile/Cancel carry per-query state the shared
// walk cannot split (a cancellation signal belongs to one caller's deadline,
// not to every query sharing the arena walk). Pred likewise takes the
// per-query path: each fallback Searcher compiles the predicate against the
// tree's attribute store and runs the pushdown natively, which the shared
// walk's per-node active sets have no slot for — and per-query results are
// bitwise what the batch would produce anyway.
func Eligible(opts core.SearchOptions) bool {
	return opts.Budget <= 0 && opts.Filter == nil && opts.Pred == nil &&
		opts.Profile == nil && opts.Cancel == nil
}

// Fallback answers queries one at a time through s — the per-query path for
// batches that are not Eligible. out and stats must have queries.N entries.
func Fallback(s Searcher, queries *vec.Matrix, opts core.SearchOptions, out [][]core.Result, stats []core.Stats) {
	for i := 0; i < queries.N; i++ {
		out[i], stats[i] = s.Search(queries.Row(i), opts, nil)
	}
}

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

// BatchScratch holds every piece of reusable state one batched traversal
// needs: per-query top-k collectors and norms, the active-set arena the
// recursive walk carves per-node segments from, the queries as the
// multi-query kernel reads them, and the output buffers of the leaf kernels.
// A zero value is ready; all storage grows on demand and is retained across
// runs, so a pooled BatchScratch reaches a zero-allocation steady state.
type BatchScratch struct {
	Heaps  []core.TopK // one collector per query of the batch
	QNorms []float64   // per-query ||q||

	// Active-set arena: visit() allocates one (act, ips) segment per child
	// per node, strictly LIFO with the recursion, via Mark/Alloc/Release.
	act  []int32
	ips  []float64
	mark int

	dists []float64 // leaf kernel output, reused across leaves
	cuts  []int     // per-active-query leaf prefixes, reused across leaves

	// Wide is the batch's queries in the multi-query kernel's form (widened
	// once per batch where the assembly tile runs); the owner Resets it.
	Wide vec.Queries

	// Quantized-filter state (ResetQuant): one fitted integer filter per
	// query of the batch. qw packs the int16 weights row-major (nq x d);
	// qbase/qinvS/qeps hold each query's affine form and error bound; sel is
	// the per-leaf survivor scratch shared by the sequential leaf loop.
	qw    []int16
	qbase []float64
	qinvS []float64
	qeps  []float64
	sel   []int32
}

// Reset prepares the scratch for a batch of nq queries with k results each:
// collectors are (re)initialized and per-query norms computed. Storage from
// earlier batches is retained.
func (b *BatchScratch) Reset(queries *vec.Matrix, k int) {
	nq := queries.N
	if nq > len(b.Heaps) {
		h := make([]core.TopK, nq)
		copy(h, b.Heaps)
		b.Heaps = h
	}
	for i := 0; i < nq; i++ {
		b.Heaps[i].Init(k)
	}
	if nq > len(b.QNorms) {
		b.QNorms = make([]float64, nq)
	}
	for i := 0; i < nq; i++ {
		b.QNorms[i] = vec.Norm(queries.Row(i))
	}
	b.mark = 0
}

// FilterFitter is what ResetQuant needs of a quantizer: *quant.Quantizer,
// named by its one method so that this package, which the linear scan that
// internal/quant's tests compare against imports, does not import quant.
type FilterFitter interface {
	FitInto(w []int16, query []float32) (base, invS, eps float64)
}

// ResetQuant fits the quantized filter of every query in the batch into the
// scratch's packed per-query state (see quant.Quantizer.FitInto). Call after
// Reset when the tree carries a quantized mirror; the per-query coefficients
// are then read back with QuantFilter during leaf scans.
func (b *BatchScratch) ResetQuant(qz FilterFitter, queries *vec.Matrix) {
	nq, d := queries.N, queries.D
	if cap(b.qw) < nq*d {
		b.qw = make([]int16, nq*d)
	}
	b.qw = b.qw[:nq*d]
	if nq > len(b.qbase) {
		b.qbase = make([]float64, nq)
		b.qinvS = make([]float64, nq)
		b.qeps = make([]float64, nq)
	}
	for qi := 0; qi < nq; qi++ {
		b.qbase[qi], b.qinvS[qi], b.qeps[qi] =
			qz.FitInto(b.qw[qi*d:(qi+1)*d], queries.Row(qi))
	}
}

// QuantFilter returns query qi's fitted filter coefficients as packed by
// ResetQuant: the weight row plus the affine form and error bound.
func (b *BatchScratch) QuantFilter(qi, d int) (w []int16, base, invS, eps float64) {
	return b.qw[qi*d : (qi+1)*d], b.qbase[qi], b.qinvS[qi], b.qeps[qi]
}

// Sel returns an empty survivor-index slice with capacity at least n, reused
// across the leaf scans of a batch.
func (b *BatchScratch) Sel(n int) []int32 {
	if cap(b.sel) < n {
		b.sel = make([]int32, 0, n)
	}
	return b.sel[:0]
}

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
