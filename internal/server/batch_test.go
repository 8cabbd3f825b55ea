package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"p2h/internal/balltree"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
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

// treeSetup builds a BC-Tree over n clustered points and returns it with the
// lifted points it indexes and nq unit-normal queries.
func treeSetup(t *testing.T, n, nq int, seed int64) (treeIndex, *vec.Matrix, *vec.Matrix) {
	t.Helper()
	raw := dataset.Dedup(dataset.Generate(dataset.Spec{
		Name: "t", Family: dataset.FamilyClustered, RawDim: 20, Clusters: 6,
	}, n, seed))
	queries := dataset.GenerateQueries(raw, nq, seed+1)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		vec.Normalize(q[:len(q)-1])
	}
	lifted := raw.AppendOnes()
	return treeIndex{tree: balltree.Build(lifted, balltree.BC, balltree.Config{LeafSize: 25, Seed: seed})}, lifted, queries
}

// rowsOf is m as the row slices the batch entry takes.
func rowsOf(m *vec.Matrix) [][]float32 {
	rows := make([][]float32, m.N)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// hooked runs hook before every index call, with the number of rows the call
// answers; hookedBatch keeps the batch surface of an index that has one.
type hooked struct {
	Searcher
	hook func(rows int)
}

func (h hooked) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	h.hook(1)
	return h.Searcher.Search(q, opts)
}

type hookedBatch struct {
	hooked
	batch BatchSearcher
}

func (h hookedBatch) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	h.hook(queries.N)
	return h.batch.SearchBatch(queries, opts)
}

func hook(ix Searcher, fn func(rows int)) Searcher {
	if b, ok := ix.(BatchSearcher); ok {
		return hookedBatch{hooked{ix, fn}, b}
	}
	return hooked{ix, fn}
}

// entries are the engine's three doors, each answering the same rows.
var entries = []struct {
	name  string
	calls func(rows int) int64 // serving calls the door makes for that many rows
	run   func(e *Engine, qs [][]float32, opts core.SearchOptions) ([][]core.Result, []core.Stats)
}{
	{"Search", func(rows int) int64 { return int64(rows) }, func(e *Engine, qs [][]float32, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
		res, sts := make([][]core.Result, len(qs)), make([]core.Stats, len(qs))
		for i, q := range qs {
			res[i], sts[i] = e.Search(q, opts)
		}
		return res, sts
	}},
	{"SearchCtx", func(rows int) int64 { return int64(rows) }, func(e *Engine, qs [][]float32, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
		res, sts := make([][]core.Result, len(qs)), make([]core.Stats, len(qs))
		for i, q := range qs {
			var err error
			if res[i], sts[i], err = e.SearchCtx(context.Background(), q, opts); err != nil {
				panic(err)
			}
		}
		return res, sts
	}},
	{"SearchBatchCtx", func(int) int64 { return 1 }, func(e *Engine, qs [][]float32, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
		res, sts, err := e.SearchBatchCtx(context.Background(), qs, opts)
		if err != nil {
			panic(err)
		}
		return res, sts
	}},
}

// TestEntriesMatchDirectSearch is the serving matrix: every door of the
// engine over a tree and a linear scan with the batch surface, a scan
// without, and a mutable one. Answers are bitwise the direct Index.Search answers, cold and from the
// cache; rows that cannot share a traversal (budgeted, filtered) also return
// exactly the sequential stats; the cache counters add up; and a panic from
// a Filter or from the index itself reaches its caller with the worker slot
// and the read lock released.
func TestEntriesMatchDirectSearch(t *testing.T) {
	tree, lifted, queries := treeSetup(t, 900, 12, 1)
	mut := newMutScan(tree.Dim())
	for i := 0; i < 200; i++ {
		mut.Insert(lifted.Row(i)[:tree.Dim()])
	}
	fixtures := []struct {
		name string
		ix   Searcher
		mut  Mutator
	}{
		{"tree", tree, nil},
		{"scan", scanIndex{linearscan.New(lifted)}, nil},
		{"scan-batch", batchScanIndex{scanIndex{linearscan.New(lifted)}}, nil},
		{"mutable", mut, mut},
	}
	qs := rowsOf(queries)
	even := func(id int32) bool { return id%2 == 0 }

	for _, fx := range fixtures {
		for _, en := range entries {
			t.Run(fx.name+"/"+en.name, func(t *testing.T) {
				const workers = 2
				var boom atomic.Bool
				ix := hook(fx.ix, func(int) {
					if boom.Load() {
						panic("index boom")
					}
				})
				e := New(ix, fx.mut, Config{Workers: workers})
				defer e.Close()
				check := func(what string, opts core.SearchOptions, exactStats bool) {
					t.Helper()
					got, sts := en.run(e, qs, opts)
					for i, q := range qs {
						want, wst := fx.ix.Search(q, opts)
						if !slices.Equal(got[i], want) {
							t.Fatalf("%s row %d: %v, want %v", what, i, got[i], want)
						}
						if exactStats && sts[i] != wst {
							t.Fatalf("%s row %d: stats %+v, want the sequential %+v", what, i, sts[i], wst)
						}
					}
				}
				nq := int64(len(qs))

				check("cold", core.SearchOptions{K: 5}, false)
				if st := e.Stats(); st.CacheMisses != nq || st.CacheHits != 0 {
					t.Fatalf("cold pass: %+v", st)
				}
				check("cached", core.SearchOptions{K: 5}, false)
				if st := e.Stats(); st.CacheMisses != nq || st.CacheHits != nq {
					t.Fatalf("cached pass: %+v", st)
				}
				check("budgeted", core.SearchOptions{K: 5, Budget: 60}, true)
				check("filtered", core.SearchOptions{K: 5, Filter: even}, true)
				st := e.Stats()
				if st.Queries != 4*nq || st.Batches != 4*en.calls(len(qs)) ||
					st.CacheHits != nq || st.CacheMisses != 2*nq {
					t.Fatalf("counters after four passes: %+v", st)
				}

				// More panics than slots: a leaked slot would hang the next call.
				caught := func(opts core.SearchOptions) (p any) {
					defer func() { p = recover() }()
					en.run(e, qs, opts)
					return nil
				}
				for i := 0; i <= workers; i++ {
					if p := caught(core.SearchOptions{K: 1, Filter: func(int32) bool { panic("filter boom") }}); p != "filter boom" {
						t.Fatalf("filter panic %d: recovered %v", i, p)
					}
					boom.Store(true)
					if p := caught(core.SearchOptions{K: 2}); p != "index boom" {
						t.Fatalf("index panic %d: recovered %v", i, p)
					}
					boom.Store(false)
				}
				if got := e.Stats().Panics; got != 2*(workers+1) {
					t.Fatalf("Stats.Panics = %d, want %d", got, 2*(workers+1))
				}
				if fx.mut != nil { // a leaked read lock would hang the write
					if _, err := e.Insert(lifted.Row(300)[:tree.Dim()]); err != nil {
						t.Fatal(err)
					}
				}
				check("after panics", core.SearchOptions{K: 3}, false)
				if b := e.Stats().Backlog; b != 0 {
					t.Fatalf("Backlog = %d at rest", b)
				}
			})
		}
	}
}

// TestSearchBatchCtxChunksByWorkers pins the split: the misses of one batch
// reach a batch-capable index as min(Workers, misses) SearchBatch calls of
// near-equal contiguous size, whatever the scheduling — and as none at all
// once the cache holds the answers.
func TestSearchBatchCtxChunksByWorkers(t *testing.T) {
	tree, _, queries := treeSetup(t, 600, 10, 2)
	qs := rowsOf(queries)
	for _, tc := range []struct {
		workers int
		want    string
	}{{1, "[10]"}, {3, "[3 3 4]"}, {16, "[1 1 1 1 1 1 1 1 1 1]"}} {
		sizes := make(chan int, len(qs))
		e := New(hook(tree, func(rows int) { sizes <- rows }), nil, Config{Workers: tc.workers})
		for pass := 0; pass < 2; pass++ { // the second pass is all cache hits
			if _, _, err := e.SearchBatchCtx(context.Background(), qs, core.SearchOptions{K: 4}); err != nil {
				t.Fatal(err)
			}
		}
		e.Close()
		close(sizes)
		count := make(map[int]int)
		for s := range sizes {
			count[s]++
		}
		var got []int
		for s := 1; s <= len(qs); s++ {
			for ; count[s] > 0; count[s]-- {
				got = append(got, s)
			}
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("Workers %d: chunk sizes %v, want %s", tc.workers, got, tc.want)
		}
	}
}

// slowTree has the batch surface, but its per-row Search takes delay while
// polling the cancellation hook, and counts the rows it started. Budgeted
// options are not exec.Eligible, so its SearchBatch — which could not honor a
// deadline — must never be what answers them.
type slowTree struct {
	treeIndex
	delay   time.Duration
	started atomic.Int64
}

func (s *slowTree) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	s.started.Add(1)
	for deadline := time.Now().Add(s.delay); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if opts.Canceled() {
			return nil, core.Stats{} // truncated: nothing verified yet
		}
	}
	return s.treeIndex.Search(q, opts)
}

func (s *slowTree) SearchBatch(*vec.Matrix, core.SearchOptions) ([][]core.Result, []core.Stats) {
	panic("SearchBatch ran a batch that is not exec.Eligible")
}

// TestSearchBatchCtxDeadline: every per-row execution of a batch carries the
// deadline. A budgeted batch on a slow index is cut off mid-row, the rows
// behind it never start, the call fails as a whole with ctx.Err(), and the
// truncated row is not in the cache afterwards.
func TestSearchBatchCtxDeadline(t *testing.T) {
	tree, _, queries := treeSetup(t, 400, 8, 3)
	ix := &slowTree{treeIndex: tree, delay: 40 * time.Millisecond}
	e := New(ix, nil, Config{Workers: 1})
	defer e.Close()
	qs := rowsOf(queries)
	opts := core.SearchOptions{K: 3, Budget: 100}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	res, _, err := e.SearchBatchCtx(ctx, qs, opts)
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("res=%v err=%v, want no results and DeadlineExceeded", res, err)
	}
	started := ix.started.Load()
	if started == 0 || started >= int64(len(qs)) {
		t.Fatalf("%d of %d rows started under a deadline worth one and a half", started, len(qs))
	}
	if ex := e.Stats().Expired; ex != int64(len(qs))-started {
		t.Fatalf("Stats.Expired = %d, want the %d rows never started", ex, int64(len(qs))-started)
	}

	// Without a deadline every row comes back whole: whatever the first call
	// cached was a complete answer, and the row it truncated runs again.
	ix.delay = 0
	res, _, err = e.SearchBatchCtx(context.Background(), qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, _ := tree.Search(q, opts)
		if !slices.Equal(res[i], want) {
			t.Fatalf("row %d after the deadline: %v, want %v", i, res[i], want)
		}
	}
	if hits := e.Stats().CacheHits; hits >= started {
		t.Fatalf("%d cache hits from %d started rows: the truncated row was cached", hits, started)
	}
}

// idleCompactor gives the mutable fixture a compaction surface that never
// finds work, so the engine starts its loop and nothing else.
type idleCompactor struct{ *mutScan }

func (idleCompactor) SetBackgroundCompaction(bool)             {}
func (idleCompactor) CompactionNeeded() bool                   { return false }
func (idleCompactor) BeginCompaction() (build, install func()) { return nil, nil }

// TestEngineOwnsNoGoroutines: searches run on their callers, so an engine at
// rest owns no goroutine but the optional compaction loop, and gives that
// one back on Close.
func TestEngineOwnsNoGoroutines(t *testing.T) {
	data, queries := testData(100, 4, 2, 16)
	before := runtime.NumGoroutine()
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 8})
	e.Search(queries.Row(0), core.SearchOptions{K: 1})
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("immutable engine: %d goroutines, %d before New", n, before)
	}
	e.Close()

	m := idleCompactor{newMutScan(4)}
	e = New(m, m, Config{Workers: 8, BackgroundCompaction: true})
	if n := runtime.NumGoroutine(); n != before+1 {
		t.Fatalf("compacting engine: %d goroutines, want %d (the loop)", n, before+1)
	}
	e.Close() // returns as the loop exits
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != before; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatalf("after Close: %d goroutines, %d before New", runtime.NumGoroutine(), before)
		}
	}
}
