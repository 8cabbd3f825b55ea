package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2h/internal/core"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

// slowIndex wraps an index with a fixed per-search delay that polls the
// cancellation hook, standing in for a long leaf-block traversal.
type slowIndex struct {
	Searcher
	delay time.Duration
	step  time.Duration
}

func (s slowIndex) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	deadline := time.Now().Add(s.delay)
	for time.Now().Before(deadline) {
		if opts.Canceled() {
			return nil, core.Stats{} // partial: nothing verified yet
		}
		time.Sleep(s.step)
	}
	return s.Searcher.Search(q, opts)
}

func (s slowIndex) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	return eachRow(s.Search, queries, opts)
}

func TestSearchCtxNilContext(t *testing.T) {
	data, queries := testData(100, 8, 1, 2)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	defer e.Close()
	res, _, err := e.SearchCtx(nil, queries.Row(0), core.SearchOptions{K: 2})
	if err != nil || len(res) != 2 {
		t.Fatalf("nil ctx: res=%d err=%v", len(res), err)
	}
}

func TestSearchCtxShedsUnderOverload(t *testing.T) {
	data, queries := testData(200, 8, 4, 3)
	slow := slowIndex{scanIndex{linearscan.New(data)}, 5 * time.Millisecond, time.Millisecond}
	e := New(slow, nil, Config{
		Workers: 1, CacheEntries: -1,
		MaxQueue: 2, MaxQueueDelay: time.Hour, // only the static limit binds
	})
	defer e.Close()

	const flood = 32
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := e.SearchCtx(context.Background(), queries.Row(i%queries.N), core.SearchOptions{K: 1})
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrOverloaded):
				var oe *OverloadError
				if !errors.As(err, &oe) {
					t.Errorf("overload error is %T, not *OverloadError", err)
					return
				}
				if oe.RetryAfter <= 0 {
					t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
				}
				shed.Add(1)
			default:
				t.Errorf("unexpected error %v", err)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("flood of %d against MaxQueue=2 shed nothing (served %d)", flood, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("everything was shed; admitted requests must still be served")
	}
	st := e.Stats()
	if st.Shed != shed.Load() {
		t.Fatalf("Stats.Shed = %d, callers saw %d", st.Shed, shed.Load())
	}
	if st.Backlog != 0 {
		t.Fatalf("Backlog = %d after quiescence, want 0", st.Backlog)
	}
}

func TestSearchCtxQueuedExpiryDropsBeforeDispatch(t *testing.T) {
	data, queries := testData(100, 8, 2, 4)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before submission
	_, _, err := e.SearchCtx(ctx, queries.Row(0), core.SearchOptions{K: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.Stats().Expired == 0 {
		t.Fatal("Stats.Expired did not count the dropped request")
	}
	// The engine keeps serving.
	if _, _, err := e.SearchCtx(context.Background(), queries.Row(1), core.SearchOptions{K: 1}); err != nil {
		t.Fatalf("engine wedged after expired request: %v", err)
	}
}

func TestSearchCtxMidSearchDeadline(t *testing.T) {
	data, queries := testData(100, 8, 1, 5)
	slow := slowIndex{scanIndex{linearscan.New(data)}, time.Second, 100 * time.Microsecond}
	e := New(slow, nil, Config{Workers: 1, CacheEntries: 8})
	defer e.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	q := queries.Row(0)
	start := time.Now()
	res, _, err := e.SearchCtx(ctx, q, core.SearchOptions{K: 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("deadline at 10ms but the search ran %v — cancellation not honored", took)
	}
	if len(res) != 0 {
		t.Fatalf("canceled slowIndex returned %d results, want its partial (empty) set", len(res))
	}
	// The truncated answer must not have been cached: a fresh uncancelled
	// search of the same query gets the real results.
	full, _, err := e.SearchCtx(context.Background(), q, core.SearchOptions{K: 3})
	if err != nil || len(full) != 3 {
		t.Fatalf("after cancel: res=%d err=%v, want 3 exact results", len(full), err)
	}
	if e.Stats().CacheHits != 0 {
		t.Fatal("full search hit the cache — the canceled partial was cached")
	}
}

func TestSearchCtxOnDrainedEngine(t *testing.T) {
	data, queries := testData(50, 8, 1, 6)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 1})
	e.Close()
	_, _, err := e.SearchCtx(context.Background(), queries.Row(0), core.SearchOptions{K: 1})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestBudgetCeilingDegradesAndRestores(t *testing.T) {
	data, queries := testData(500, 8, 4, 7)
	e := New(scanIndex{linearscan.New(data)}, nil, Config{Workers: 2, CacheEntries: -1})
	defer e.Close()
	q := queries.Row(0)

	_, st := e.Search(q, core.SearchOptions{K: 3})
	if st.Candidates != 500 {
		t.Fatalf("exact scan verified %d candidates, want 500", st.Candidates)
	}
	e.SetBudgetCeiling(100)
	if e.BudgetCeiling() != 100 {
		t.Fatalf("BudgetCeiling = %d", e.BudgetCeiling())
	}
	_, st, err := e.SearchCtx(context.Background(), q, core.SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates > 100 {
		t.Fatalf("degraded search verified %d candidates, ceiling 100", st.Candidates)
	}
	// A budget under the ceiling passes through untouched.
	_, st, _ = e.SearchCtx(context.Background(), q, core.SearchOptions{K: 3, Budget: 50})
	if st.Candidates > 50 {
		t.Fatalf("explicit budget 50 verified %d candidates", st.Candidates)
	}
	if e.Stats().DegradedQueries == 0 {
		t.Fatal("DegradedQueries did not count the clamped search")
	}
	e.SetBudgetCeiling(0)
	_, st, _ = e.SearchCtx(context.Background(), q, core.SearchOptions{K: 3})
	if st.Candidates != 500 {
		t.Fatalf("after restore: %d candidates, want exact 500", st.Candidates)
	}
	if c := e.Stats().BudgetCeiling; c != 0 {
		t.Fatalf("Stats.BudgetCeiling = %d after restore", c)
	}
}

func TestLatencyQuantileWindows(t *testing.T) {
	var a, b LatencySnapshot
	// 99 fast observations in bucket 0, one slow in the 1s bucket.
	a.Counts[0], a.Total = 10, 10
	b = a
	b.Counts[0] += 89
	b.Counts[12] += 1 // bucket upper bound 1s
	b.Total += 90
	w := b.Sub(a)
	if w.Total != 90 {
		t.Fatalf("window total = %d", w.Total)
	}
	if p50 := w.Quantile(0.5); p50 > latBounds[0] {
		t.Fatalf("p50 = %v, want within first bucket", p50)
	}
	if p999 := w.Quantile(0.999); p999 <= latBounds[11] {
		t.Fatalf("p99.9 = %v, want inside the 1s bucket", p999)
	}
	if (LatencySnapshot{}).Quantile(0.99) != 0 {
		t.Fatal("empty window quantile must be 0")
	}
}

// TestHistogramBuckets pins the bucket rule (an observation lands in the
// first bucket whose bound it does not exceed; beyond the last bound it
// counts only toward Total), the Sum the /metrics _sum series renders, and
// the cumulative counts Buckets yields for the _bucket series.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(50 * time.Microsecond)  // <= 0.0001
	h.Observe(300 * time.Microsecond) // <= 0.0005
	h.Observe(30 * time.Second)       // only +Inf
	s := h.Snapshot()
	if s.Total != 3 {
		t.Fatalf("total %d", s.Total)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("first bucket %d", s.Counts[0])
	}
	var bucketed int64
	for _, c := range s.Counts {
		bucketed += c
	}
	if bucketed != 2 {
		t.Fatalf("bucketed %d, want 2 (one observation beyond the last bound)", bucketed)
	}
	if want := 50*time.Microsecond + 300*time.Microsecond + 30*time.Second; s.Sum != want {
		t.Fatalf("sum %v, want %v", s.Sum, want)
	}
	var got []string
	for ub, cum := range s.Buckets() {
		got = append(got, fmt.Sprint(ub, ":", cum))
	}
	if want := "[0.0001:1 0.00025:1 0.0005:2 0.001:2 0.0025:2 0.005:2 0.01:2 0.025:2 0.05:2 0.1:2 0.25:2 0.5:2 1:2 2.5:2 5:2 10:2]"; fmt.Sprint(got) != want {
		t.Fatalf("buckets %v, want %s", got, want)
	}
	if w := s.Sub(s); w.Sum != 0 || w.Total != 0 {
		t.Fatalf("empty window %+v", w)
	}
}
