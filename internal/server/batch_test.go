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

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

// treeIndex adapts a BC-Tree (which stores lifted vectors) to the engine's
// Searcher surface.
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
// answers.
type hooked struct {
	Searcher
	hook func(rows int)
}

func (h hooked) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	h.hook(1)
	return h.Searcher.Search(q, opts)
}

func (h hooked) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	h.hook(queries.N)
	return h.Searcher.SearchBatch(queries, opts)
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
// engine over a tree, a linear scan with the scanner's own batch, and a
// linear scan and a mutable index whose batches are per-row loops. Answers
// are bitwise the direct Index.Search answers, cold and from the cache; a
// batch reaches the index as one SearchBatch call per chunk
// at any budget; budgeted and filtered rows also return exactly the stats of
// the index calls the engine makes for them — the sequential stats, or for
// the tree's filtered and profiled batches, which share one walk per chunk,
// those of a direct unprofiled SearchBatch over each chunk, a profiled batch
// filling its profile; the cache counters add up; and a panic from a Filter
// or from the index itself reaches its caller with the worker slot and the
// read lock released.
func TestEntriesMatchDirectSearch(t *testing.T) {
	tree, lifted, queries := treeSetup(t, 900, 12, 1)
	mut := newMutScan(tree.Dim())
	for i := 0; i < 200; i++ {
		mut.Insert(lifted.Row(i)[:tree.Dim()], attr.Point{})
	}
	fixtures := []struct {
		name string
		ix   Searcher
		mut  Mutator
	}{
		{"tree", tree, nil},
		{"scan", rowScanIndex{scanIndex{linearscan.New(lifted)}}, nil},
		{"scan-batch", scanIndex{linearscan.New(lifted)}, nil},
		{"mutable", mut, mut},
	}
	qs := rowsOf(queries)
	even := func(id int32) bool { return id%2 == 0 }

	for _, fx := range fixtures {
		for _, en := range entries {
			t.Run(fx.name+"/"+en.name, func(t *testing.T) {
				const workers = 2
				var boom atomic.Bool
				var calls atomic.Int64 // index calls the engine made
				ix := hooked{fx.ix, func(int) {
					if boom.Load() {
						panic("index boom")
					}
					calls.Add(1)
				}}
				e := New(ix, fx.mut, Config{Workers: workers})
				defer e.Close()
				// check compares every row's answer with the direct Search and,
				// given wantStats, its Stats with wantStats(opts)'s row.
				check := func(what string, opts core.SearchOptions, wantStats func(core.SearchOptions) []core.Stats) {
					t.Helper()
					got, sts := en.run(e, qs, opts)
					var wsts []core.Stats
					if wantStats != nil {
						wsts = wantStats(opts)
					}
					for i, q := range qs {
						want, _ := fx.ix.Search(q, opts)
						if !slices.Equal(got[i], want) {
							t.Fatalf("%s row %d: %v, want %v", what, i, got[i], want)
						}
						if wsts != nil && sts[i] != wsts[i] {
							t.Fatalf("%s row %d: stats %+v, want %+v", what, i, sts[i], wsts[i])
						}
					}
				}
				sequential := func(opts core.SearchOptions) []core.Stats {
					sts := make([]core.Stats, len(qs))
					for i, q := range qs {
						_, sts[i] = fx.ix.Search(q, opts)
					}
					return sts
				}
				// perChunk: one direct SearchBatch per chunk of the misses,
				// split as the engine splits them (contiguous, min(Workers,
				// misses) chunks; every filtered row misses the cache).
				perChunk := func(opts core.SearchOptions) []core.Stats {
					var sts []core.Stats
					d := queries.D
					for c := 0; c < workers; c++ {
						lo, hi := c*queries.N/workers, (c+1)*queries.N/workers
						_, chunk := tree.SearchBatch(&vec.Matrix{Data: queries.Data[lo*d : hi*d], N: hi - lo, D: d}, opts)
						sts = append(sts, chunk...)
					}
					return sts
				}
				nq := int64(len(qs))

				check("cold", core.SearchOptions{K: 5}, nil)
				if st := e.Stats(); st.CacheMisses != nq || st.CacheHits != 0 {
					t.Fatalf("cold pass: %+v", st)
				}
				check("cached", core.SearchOptions{K: 5}, nil)
				if st := e.Stats(); st.CacheMisses != nq || st.CacheHits != nq {
					t.Fatalf("cached pass: %+v", st)
				}
				// A budgeted batch takes the road an exact one does: one
				// SearchBatch call per chunk.
				before := calls.Load()
				check("budgeted", core.SearchOptions{K: 5, Budget: 60}, sequential)
				wantCalls := nq
				if en.name == "SearchBatchCtx" {
					wantCalls = workers
				}
				if got := calls.Load() - before; got != wantCalls {
					t.Fatalf("budgeted pass: %d index calls, want %d", got, wantCalls)
				}
				filtered := sequential
				if fx.name == "tree" && en.name == "SearchBatchCtx" {
					filtered = perChunk
				}
				check("filtered", core.SearchOptions{K: 5, Filter: even}, filtered)
				st := e.Stats()
				if st.Queries != 4*nq || st.Batches != 4*en.calls(len(qs)) ||
					st.CacheHits != nq || st.CacheMisses != 2*nq {
					t.Fatalf("counters after four passes: %+v", st)
				}
				if fx.name == "tree" && en.name == "SearchBatchCtx" {
					// A profile changes no chunk: the batch counts as the
					// unprofiled chunks do, and every chunk fills it. (At
					// K 4, a key the cache has not seen: a profiled call
					// takes the cache like any other.)
					var prof core.Profile
					check("profiled", core.SearchOptions{K: 4, Profile: &prof}, func(opts core.SearchOptions) []core.Stats {
						if prof.Total() <= 0 {
							t.Fatal("the profiled batch left its profile empty")
						}
						opts.Profile = nil
						return perChunk(opts)
					})
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
					if _, err := e.Insert(lifted.Row(300)[:tree.Dim()], attr.Point{}); err != nil {
						t.Fatal(err)
					}
				}
				check("after panics", core.SearchOptions{K: 3}, nil)
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
		e := New(hooked{tree, func(rows int) { sizes <- rows }}, nil, Config{Workers: tc.workers})
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

// slowTree's per-row Search takes delay while polling the cancellation hook,
// and counts the rows it started; its SearchBatch is a per-row loop of that
// Search, as the indexes without a batched path of their own run one.
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

func (s *slowTree) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	return eachRow(s.Search, queries, opts)
}

// TestSearchBatchCtxDeadline: a budgeted batch reaches a slow per-row index
// as one SearchBatch carrying the deadline. It is cut off mid-row, the rows
// behind it never start, the call fails as a whole with ctx.Err(), every row
// of the chunk counts as expired, and none is in the cache afterwards.
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
	if ex := e.Stats().Expired; ex != int64(len(qs)) {
		t.Fatalf("Stats.Expired = %d, want all %d rows of the cut chunk", ex, len(qs))
	}

	// Without a deadline every row comes back whole: the first call cached
	// nothing, so the row it truncated runs again.
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
	if hits := e.Stats().CacheHits; hits != 0 {
		t.Fatalf("%d cache hits: the cut chunk was cached", hits)
	}

	t.Run("exact", func(t *testing.T) { testExactBatchDeadline(t, tree, qs) })
}

// lateTree is a real batch-surface tree whose SearchBatch starts late: it
// waits out delay, or until the call's Cancel hook fires, then runs the
// tree's walk and records what that walk was handed and what it did.
type lateTree struct {
	treeIndex
	delay     time.Duration
	hadCancel atomic.Bool
	nodes     atomic.Int64 // NodesVisited summed over the batch's rows
}

func (l *lateTree) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	l.hadCancel.Store(opts.Cancel != nil)
	for until := time.Now().Add(l.delay); time.Now().Before(until) && !opts.Canceled(); time.Sleep(time.Millisecond) {
	}
	res, sts := l.treeIndex.SearchBatch(queries, opts)
	for _, st := range sts {
		l.nodes.Add(st.NodesVisited)
	}
	return res, sts
}

// testExactBatchDeadline: an exact batch runs as one SearchBatch call that
// carries the deadline. A deadline that fires before the walk starts stops it
// at the root, the call fails with ctx.Err(), every row counts as expired and
// nothing is cached.
func testExactBatchDeadline(t *testing.T, tree treeIndex, qs [][]float32) {
	ix := &lateTree{treeIndex: tree, delay: 200 * time.Millisecond}
	e := New(ix, nil, Config{Workers: 1})
	defer e.Close()
	opts := core.SearchOptions{K: 3}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, _, err := e.SearchBatchCtx(ctx, qs, opts)
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("res=%v err=%v, want no results and DeadlineExceeded", res, err)
	}
	if !ix.hadCancel.Load() {
		t.Fatal("the exact batch reached SearchBatch without the deadline's Cancel hook")
	}
	if n := ix.nodes.Load(); n != 0 {
		t.Fatalf("the walk visited %d nodes after its deadline", n)
	}
	if ex := e.Stats().Expired; ex != int64(len(qs)) {
		t.Fatalf("Stats.Expired = %d, want all %d rows of the expired batch", ex, len(qs))
	}

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
	if hits := e.Stats().CacheHits; hits != 0 {
		t.Fatalf("%d cache hits: the expired batch was cached", hits)
	}
	if ix.nodes.Load() == 0 {
		t.Fatal("the uncanceled batch visited no node")
	}
}

// TestEngineOwnsNoGoroutines: searches run on their callers, so an engine at
// rest owns no goroutine but a mutable index's compaction loop, and gives
// that one back on Close.
func TestEngineOwnsNoGoroutines(t *testing.T) {
	data, queries := testData(100, 4, 2, 16)
	before := runtime.NumGoroutine()
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 8})
	e.Search(queries.Row(0), core.SearchOptions{K: 1})
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("immutable engine: %d goroutines, %d before New", n, before)
	}
	e.Close()

	m := newMutScan(4) // its compaction never finds work: the loop starts and idles
	e = New(m, m, Config{Workers: 8})
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
