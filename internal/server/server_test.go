package server

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2h/internal/core"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

// scanIndex adapts linearscan to the engine's Searcher surface: the scanner
// stores lifted vectors, so its raw dimensionality is one less.
type scanIndex struct {
	scan *linearscan.Scanner
}

func (s scanIndex) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	return s.scan.Search(q, opts)
}

func (s scanIndex) Dim() int { return s.scan.Dim() - 1 }

// batchScanIndex is scanIndex with the scanner's batch surface.
type batchScanIndex struct{ scanIndex }

func (s batchScanIndex) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	return s.scan.SearchBatch(queries, opts)
}

// mutScan is a Mutator over a guarded point set with a rebuilt scanner; it
// exists to exercise the engine's locking, not to be fast.
type mutScan struct {
	rows  *vec.Matrix
	alive []bool
	scan  atomic.Pointer[linearscan.Scanner]
	ids   atomic.Pointer[[]int32]
	dim   int
}

func newMutScan(dim int) *mutScan {
	m := &mutScan{rows: vec.NewMatrix(0, dim+1), dim: dim}
	m.rebuild()
	return m
}

func (m *mutScan) rebuild() {
	ids := make([]int32, 0, m.rows.N)
	for i, ok := range m.alive {
		if ok {
			ids = append(ids, int32(i))
		}
	}
	if len(ids) == 0 {
		m.scan.Store(nil)
		m.ids.Store(&ids)
		return
	}
	m.scan.Store(linearscan.New(m.rows.SubsetRows(ids)))
	m.ids.Store(&ids)
}

func (m *mutScan) Insert(p []float32) int32 {
	lifted := append(append(make([]float32, 0, m.dim+1), p...), 1)
	h := int32(m.rows.N)
	m.rows.Data = append(m.rows.Data, lifted...)
	m.rows.N++
	m.alive = append(m.alive, true)
	m.rebuild()
	return h
}

func (m *mutScan) Delete(handle int32) bool {
	if handle < 0 || int(handle) >= len(m.alive) || !m.alive[handle] {
		return false
	}
	m.alive[handle] = false
	m.rebuild()
	return true
}

func (m *mutScan) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	scan := m.scan.Load()
	if scan == nil {
		return nil, core.Stats{}
	}
	res, st := scan.Search(q, opts)
	ids := *m.ids.Load()
	for i := range res {
		res[i].ID = ids[res[i].ID]
	}
	return res, st
}

func (m *mutScan) Dim() int { return m.dim }

// testData builds n random d-dimensional points and nq unit-normal queries.
func testData(n, d, nq int, seed int64) (*vec.Matrix, *vec.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	data := vec.NewMatrix(n, d+1)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := 0; j < d; j++ {
			row[j] = float32(rng.NormFloat64())
		}
		row[d] = 1
	}
	queries := vec.NewMatrix(nq, d+1)
	for i := 0; i < nq; i++ {
		row := queries.Row(i)
		for j := 0; j < d; j++ {
			row[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(row[:d])
		row[d] = float32(rng.NormFloat64())
	}
	return data, queries
}

func TestEngineCanonicalizesScaledQueries(t *testing.T) {
	data, _ := testData(200, 6, 1, 2)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	defer e.Close()
	// Exactly representable unit normal and power-of-two scale, so both
	// canonical forms are bit-identical and must share one cache slot.
	q := []float32{1, 0, 0, 0, 0, 0, 0.25}
	scaled := make([]float32, len(q))
	for i := range q {
		scaled[i] = 4 * q[i]
	}
	a, _ := e.Search(q, core.SearchOptions{K: 3})
	b, _ := e.Search(scaled, core.SearchOptions{K: 3})
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("rank %d: %v vs scaled %v", i, a[i], b[i])
		}
	}
	if hits := e.Stats().CacheHits; hits != 1 {
		t.Fatalf("scaled duplicate should share a cache slot: hits %d", hits)
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	data, queries := testData(100, 4, 1, 3)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1, CacheEntries: -1})
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Search(queries.Row(0), core.SearchOptions{K: 2})
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache counted: %+v", st)
	}
}

func TestEngineImmutableRejectsMutation(t *testing.T) {
	data, _ := testData(10, 3, 1, 5)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	defer e.Close()
	if _, err := e.Insert([]float32{1, 2, 3}); err != ErrImmutable {
		t.Fatalf("Insert err %v", err)
	}
	if _, err := e.Delete(0); err != ErrImmutable {
		t.Fatalf("Delete err %v", err)
	}
}

func TestEngineMutationInvalidatesCache(t *testing.T) {
	d := 3
	m := newMutScan(d)
	e := New(m, m, Config{Workers: 2})
	defer e.Close()
	if _, err := e.Insert([]float32{10, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Hyperplane x0 = 0; the only point is 10 away.
	q := []float32{1, 0, 0, 0}
	res, _ := e.Search(q, core.SearchOptions{K: 1})
	if len(res) != 1 || res[0].Dist < 9.9 {
		t.Fatalf("first search %v", res)
	}
	// A closer point must surface immediately, despite the cached answer.
	h, err := e.Insert([]float32{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, _ = e.Search(q, core.SearchOptions{K: 1})
	if len(res) != 1 || res[0].ID != h || res[0].Dist > 1.1 {
		t.Fatalf("after insert %v, want handle %d at distance 1", res, h)
	}
	// Deleting it restores the old answer.
	if ok, err := e.Delete(h); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	res, _ = e.Search(q, core.SearchOptions{K: 1})
	if len(res) != 1 || res[0].Dist < 9.9 {
		t.Fatalf("after delete %v", res)
	}
	st := e.Stats()
	if st.Inserts != 2 || st.Deletes != 1 || st.Epoch != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEngineConcurrentSearchersAndMutators(t *testing.T) {
	d := 4
	m := newMutScan(d)
	e := New(m, m, Config{Workers: 4, CacheEntries: 64})
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 32; i++ {
		p := make([]float32, d)
		for j := range p {
			p[j] = float32(rng.NormFloat64())
		}
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	_, queries := testData(1, d, 8, 8)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 40; i++ {
				p := make([]float32, d)
				for j := range p {
					p[j] = float32(rng.NormFloat64())
				}
				h, err := e.Insert(p)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if _, err := e.Delete(h); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				res, _ := e.Search(queries.Row((g+i)%queries.N), core.SearchOptions{K: 3})
				if len(res) == 0 {
					t.Errorf("empty result mid-stream")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The 32 seed points were never deleted; an exact search still finds 3.
	res, _ := e.Search(queries.Row(0), core.SearchOptions{K: 3})
	if len(res) != 3 {
		t.Fatalf("final search returned %d results", len(res))
	}
}

func TestEngineCloseDrainsInFlight(t *testing.T) {
	data, queries := testData(300, 6, 16, 9)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 2})
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < queries.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _ := e.Search(queries.Row(i), core.SearchOptions{K: 1})
			if len(res) == 1 {
				served.Add(1)
			}
		}(i)
	}
	wg.Wait()
	e.Close()
	e.Close() // idempotent
	if served.Load() != int64(queries.N) {
		t.Fatalf("served %d of %d", served.Load(), queries.N)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Search after Close must panic")
		}
	}()
	e.Search(queries.Row(0), core.SearchOptions{K: 1})
}

// panicMut always panics, standing in for a mutator fed garbage (e.g. a
// wrong-dimension point into Dynamic.Insert).
type panicMut struct{}

func (panicMut) Insert(p []float32) int32 { panic("bad point") }
func (panicMut) Delete(h int32) bool      { panic("bad handle") }

func TestEngineMutatorPanicDoesNotWedgeLock(t *testing.T) {
	data, queries := testData(50, 3, 2, 11)
	e := New(scanIndex{linearscan.New(data)}, panicMut{}, Config{Workers: 1})
	defer e.Close()
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("mutator panic swallowed")
			}
		}()
		f()
	}
	mustPanic(func() { e.Insert([]float32{1, 2, 3}) })
	mustPanic(func() { e.Delete(0) })
	// The write lock must have been released: a search can still complete.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if res, _ := e.Search(queries.Row(0), core.SearchOptions{K: 1}); len(res) != 1 {
			t.Errorf("search after mutator panic: %v", res)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("search deadlocked on a wedged mutation lock")
	}
}

func TestEngineDrainBoundedOnStuckWorker(t *testing.T) {
	data, queries := testData(100, 4, 2, 13)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})

	// Wedge the only worker inside a user Filter that blocks until released.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	stuck := core.SearchOptions{K: 1, Filter: func(id int32) bool {
		once.Do(func() { close(entered); <-release })
		return true
	}}
	searchDone := make(chan struct{})
	go func() {
		defer close(searchDone)
		e.Search(queries.Row(0), stuck)
	}()
	<-entered

	// A bounded Drain must come back with the context's error instead of
	// hanging on the stuck worker — the p2hd shutdown guarantee.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain on stuck worker: %v, want DeadlineExceeded", err)
	}

	// Once the worker unblocks, the already-submitted query completes and a
	// second Drain observes the fully stopped engine.
	close(release)
	<-searchDone
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := e.Drain(ctx2); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
}

func TestEngineDrainConcurrentAndIdempotent(t *testing.T) {
	data, queries := testData(100, 4, 4, 14)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 2})
	for i := 0; i < queries.N; i++ {
		e.Search(queries.Row(i), core.SearchOptions{K: 1})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Drain(context.Background()); err != nil {
				t.Errorf("concurrent Drain: %v", err)
			}
		}()
	}
	wg.Wait()
	e.Close() // Close after Drain stays a no-op
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
}

func TestEngineExclusiveSerializesMutation(t *testing.T) {
	d := 3
	m := newMutScan(d)
	e := New(m, m, Config{Workers: 1})
	defer e.Close()
	if _, err := e.Insert([]float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	inserted := make(chan struct{})
	e.Exclusive(func() {
		go func() {
			defer close(inserted)
			if _, err := e.Insert([]float32{4, 5, 6}); err != nil {
				t.Error(err)
			}
		}()
		select {
		case <-inserted:
			t.Fatal("Insert completed inside Exclusive")
		case <-time.After(20 * time.Millisecond):
		}
	})
	select {
	case <-inserted:
	case <-time.After(5 * time.Second):
		t.Fatal("Insert never completed after Exclusive returned")
	}

	// On an immutable engine, Exclusive still runs fn (no lock to take).
	data, _ := testData(10, 3, 1, 15)
	imm := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	defer imm.Close()
	ran := false
	imm.Exclusive(func() { ran = true })
	if !ran {
		t.Fatal("Exclusive skipped fn on an immutable engine")
	}
}

func TestEngineValidatesQueries(t *testing.T) {
	data, _ := testData(10, 3, 1, 10)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	defer e.Close()
	for name, q := range map[string][]float32{
		"short":       {1, 0, 0},
		"long":        {1, 0, 0, 0, 0},
		"zero-normal": {0, 0, 0, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s query must panic", name)
				}
			}()
			e.Search(q, core.SearchOptions{K: 1})
		}()
	}
}
