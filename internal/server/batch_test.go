package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2h/internal/balltree"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/vec"
)

// treeIndex adapts a BC-Tree (which stores lifted vectors) to the engine's
// Searcher + BatchSearcher surfaces.
type treeIndex struct {
	tree *balltree.Tree
}

func (t treeIndex) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	return t.tree.Search(q, opts)
}

func (t treeIndex) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	return t.tree.SearchBatch(queries, opts)
}

func (t treeIndex) Dim() int { return t.tree.Dim() - 1 }

func treeSetup(t *testing.T, n, nq int, seed int64) (treeIndex, *vec.Matrix) {
	t.Helper()
	raw := dataset.Dedup(dataset.Generate(dataset.Spec{
		Name: "t", Family: dataset.FamilyClustered, RawDim: 20, Clusters: 6,
	}, n, seed))
	queries := dataset.GenerateQueries(raw, nq, seed+1)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		vec.Normalize(q[:len(q)-1])
	}
	return treeIndex{tree: balltree.Build(raw.AppendOnes(), balltree.BC, balltree.Config{LeafSize: 25, Seed: seed})}, queries
}

// TestBatchedServingMatchesIndex floods the engine from many goroutines so
// the dispatcher forms real micro-batches, and checks every answer equals a
// direct index search — the batched worker path must be invisible to
// callers.
func TestBatchedServingMatchesIndex(t *testing.T) {
	ix, queries := treeSetup(t, 1200, 32, 1)
	e := New(ix, nil, Config{Workers: 2, MaxBatch: 8, CacheEntries: -1})
	defer e.Close()

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*queries.N)
	for round := 0; round < rounds; round++ {
		for qi := 0; qi < queries.N; qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				q := queries.Row(qi)
				opts := core.SearchOptions{K: 1 + qi%3} // mixed option groups
				got, _ := e.Search(q, opts)
				want, _ := ix.Search(q, opts)
				if len(got) != len(want) {
					errs <- fmt.Errorf("query %d: %d results, want %d", qi, len(got), len(want))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("query %d rank %d: %+v != %+v", qi, i, got[i], want[i])
						return
					}
				}
			}(qi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Queries != rounds*int64(queries.N) {
		t.Fatalf("queries counter %d, want %d", st.Queries, rounds*queries.N)
	}
}

// TestBatchedServingMixedFilter checks that filtered requests (which must
// bypass the batched path) and plain requests can share one engine and both
// come back correct.
func TestBatchedServingMixedFilter(t *testing.T) {
	ix, queries := treeSetup(t, 800, 16, 2)
	e := New(ix, nil, Config{Workers: 2, MaxBatch: 8, CacheEntries: -1})
	defer e.Close()

	filter := func(id int32) bool { return id%2 == 0 }
	var wg sync.WaitGroup
	errs := make(chan error, 2*queries.N)
	for qi := 0; qi < queries.N; qi++ {
		wg.Add(2)
		go func(qi int) {
			defer wg.Done()
			q := queries.Row(qi)
			got, _ := e.Search(q, core.SearchOptions{K: 5})
			want, _ := ix.Search(q, core.SearchOptions{K: 5})
			for i := range want {
				if got[i] != want[i] {
					errs <- fmt.Errorf("plain query %d rank %d: %+v != %+v", qi, i, got[i], want[i])
					return
				}
			}
		}(qi)
		go func(qi int) {
			defer wg.Done()
			q := queries.Row(qi)
			got, _ := e.Search(q, core.SearchOptions{K: 5, Filter: filter})
			want, _ := ix.Search(q, core.SearchOptions{K: 5, Filter: filter})
			for i := range want {
				if got[i] != want[i] {
					errs <- fmt.Errorf("filtered query %d rank %d: %+v != %+v", qi, i, got[i], want[i])
					return
				}
			}
		}(qi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatchedServingCache checks the batched path installs and serves cache
// entries: a repeated workload converges to cache hits.
func TestBatchedServingCache(t *testing.T) {
	ix, queries := treeSetup(t, 600, 8, 3)
	e := New(ix, nil, Config{Workers: 2, MaxBatch: 4, CacheEntries: 128})
	defer e.Close()

	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for qi := 0; qi < queries.N; qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				e.Search(queries.Row(qi), core.SearchOptions{K: 3})
			}(qi)
		}
		wg.Wait()
	}
	st := e.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hits after repeated rounds: %+v", st)
	}
	if st.CacheHits+st.CacheMisses != st.Queries {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}

// countingIndex counts Search/SearchBatch queries actually computed.
type countingIndex struct {
	treeIndex
	computed atomic.Int64
}

func (c *countingIndex) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	c.computed.Add(1)
	time.Sleep(100 * time.Microsecond) // yield so chunks can form on one CPU
	return c.treeIndex.Search(q, opts)
}

func (c *countingIndex) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	c.computed.Add(int64(queries.N))
	time.Sleep(100 * time.Microsecond)
	return c.treeIndex.SearchBatch(queries, opts)
}

// TestBatchedServingCoalescesDuplicates floods the engine with one hot
// query from many goroutines, cache disabled: duplicates inside one chunk
// must be computed once and fanned out, so the index computes far fewer
// answers than it serves.
func TestBatchedServingCoalescesDuplicates(t *testing.T) {
	ix, queries := treeSetup(t, 400, 4, 6)
	ci := &countingIndex{treeIndex: ix}
	e := New(ci, nil, Config{Workers: 1, MaxBatch: 32, CacheEntries: -1})
	defer e.Close()

	q := queries.Row(0)
	want, _ := ix.Search(q, core.SearchOptions{K: 3})
	const callers, rounds = 16, 10
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, _ := e.Search(q, core.SearchOptions{K: 3})
				for j := range want {
					if got[j] != want[j] {
						errs <- fmt.Errorf("rank %d: %+v != %+v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	served := e.Stats().Queries
	if computed := ci.computed.Load(); computed >= served {
		t.Fatalf("no coalescing: computed %d answers for %d identical served queries", computed, served)
	}
}

// panicBatchIndex panics on the batched path only; the engine must route
// the panic to the submitting callers, not the worker pool. Its per-query
// Search yields the processor, so on a single-CPU test machine the blocked
// callers get to pile their requests up and the dispatcher reliably forms
// multi-request chunks (a compute-bound Search would monopolize the sole P
// and keep every chunk at size one).
type panicBatchIndex struct{ treeIndex }

func (p panicBatchIndex) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	time.Sleep(200 * time.Microsecond)
	return p.treeIndex.Search(q, opts)
}

func (p panicBatchIndex) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	panic("batch boom")
}

func TestBatchedServingPanicReachesCallers(t *testing.T) {
	ix, queries := treeSetup(t, 400, 8, 4)
	e := New(panicBatchIndex{ix}, nil, Config{Workers: 1, MaxBatch: 8, CacheEntries: -1})
	defer e.Close()

	var wg sync.WaitGroup
	panics := make(chan any, queries.N)
	for qi := 0; qi < queries.N; qi++ {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			e.Search(queries.Row(qi), core.SearchOptions{K: 2})
		}(qi)
	}
	wg.Wait()
	close(panics)
	got := 0
	for p := range panics {
		if fmt.Sprint(p) != "batch boom" {
			t.Fatalf("unexpected panic value %v", p)
		}
		got++
	}
	// Single-request chunks run the per-query path (which does not panic
	// here), so not every caller necessarily panics — but batched chunks
	// must propagate to every member they swallowed.
	if got == 0 {
		t.Skip("dispatcher never formed a multi-request chunk; nothing to assert")
	}
}
