package linearscan

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/exec"
	"p2h/internal/vec"
)

func TestSearchExactTiny(t *testing.T) {
	// Points on a line, query hyperplane x0 = 2.5 (normal (1,0), offset -2.5).
	data := vec.FromRows([][]float32{{0}, {1}, {2}, {3}, {4}}).AppendOnes()
	q := []float32{1, -2.5}
	s := New(data)
	res, st := s.Search(q, core.SearchOptions{K: 2})
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// Closest to 2.5 are points 2 and 3, both at distance 0.5.
	if res[0].Dist != 0.5 || res[1].Dist != 0.5 {
		t.Fatalf("dists = %v", res)
	}
	if res[0].ID != 2 || res[1].ID != 3 {
		t.Fatalf("ids = %v (tie must break by id)", res)
	}
	if st.Candidates != 5 || st.IPCount != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSearchBudget(t *testing.T) {
	data := vec.FromRows([][]float32{{0}, {1}, {2}, {3}}).AppendOnes()
	q := []float32{1, -3} // nearest is point 3 (dist 0)
	s := New(data)
	res, st := s.Search(q, core.SearchOptions{K: 1, Budget: 2})
	if st.Candidates != 2 {
		t.Fatalf("budget ignored: %+v", st)
	}
	// Only points 0,1 scanned; best among them is point 1 at dist 2.
	if res[0].ID != 1 || res[0].Dist != 2 {
		t.Fatalf("res = %v", res)
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(vec.NewMatrix(0, 3))
}

// TestGroundTruthShapes: the batched scan, the repository's ground truth,
// answers every query row with k results in distance order.
func TestGroundTruthShapes(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 4}, 200, 1)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 7, 2)
	gt, _ := New(data).SearchBatch(queries, core.SearchOptions{K: 5})
	if len(gt) != 7 {
		t.Fatalf("gt rows = %d", len(gt))
	}
	for i, g := range gt {
		if len(g) != 5 {
			t.Fatalf("query %d: %d results", i, len(g))
		}
		for j := 1; j < len(g); j++ {
			if g[j].Dist < g[j-1].Dist {
				t.Fatalf("query %d results unsorted", i)
			}
		}
	}
}

func TestSearchProfile(t *testing.T) {
	data := vec.FromRows([][]float32{{0}, {1}}).AppendOnes()
	prof := &core.Profile{}
	New(data).Search([]float32{1, 0}, core.SearchOptions{K: 1, Profile: prof})
	if prof.Get(core.PhaseVerify) <= 0 {
		t.Fatal("profile must record verification time")
	}
}

func TestSearchMatchesManualMin(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyUniform, RawDim: 10}, 300, 3)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 5, 4)
	s := New(data)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		res, _ := s.Search(q, core.SearchOptions{K: 1})
		best := math.Inf(1)
		for j := 0; j < data.N; j++ {
			if d := math.Abs(vec.Dot(q, data.Row(j))); d < best {
				best = d
			}
		}
		if res[0].Dist != best {
			t.Fatalf("query %d: scan=%v manual=%v", i, res[0].Dist, best)
		}
	}
}

// perRow is the scan as a loop over rows: a Dot per row the filter accepts,
// until the budget is spent, and the k best by (distance, id).
func perRow(data *vec.Matrix, q []float32, k, budget int, filter func(int32) bool) ([]core.Result, core.Stats) {
	var all []core.Result
	for i := 0; i < data.N && (budget <= 0 || len(all) < budget); i++ {
		if filter == nil || filter(int32(i)) {
			all = append(all, core.Result{ID: int32(i), Dist: math.Abs(vec.Dot(q, data.Row(i)))})
		}
	}
	st := core.Stats{IPCount: int64(len(all)), Candidates: int64(len(all))}
	core.SortResults(all)
	return all[:min(k, len(all))], st
}

// TestSearchBlockedMatchesPerRow holds the chunk loop to a per-row loop: same
// results and same Stats, blocked and filtered — the accepted rows of a chunk
// in place, gathered, and both in turn — with budgets on either side of every
// chunk boundary.
func TestSearchBlockedMatchesPerRow(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 9, Clusters: 3}, 2*scanChunk+88, 5)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 4, 6)
	s := New(data)
	for name, filter := range map[string]func(int32) bool{
		"blocked":   nil,
		"all":       func(int32) bool { return true },
		"even":      func(id int32) bool { return id%2 == 0 },
		"alternate": func(id int32) bool { return (id/scanChunk)%2 == 1 || id%3 == 0 },
	} {
		for _, budget := range []int{0, 1, scanChunk - 1, scanChunk, scanChunk + 1, 2 * scanChunk, data.N - 1, data.N, data.N + 7} {
			for i := 0; i < queries.N; i++ {
				got, gotSt := s.Search(queries.Row(i), core.SearchOptions{K: 7, Budget: budget, Filter: filter})
				want, wantSt := perRow(data, queries.Row(i), 7, budget, filter)
				if gotSt != wantSt || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s budget %d query %d:\n scan %v %+v\n per row %v %+v", name, budget, i, got, gotSt, want, wantSt)
				}
			}
		}
	}
}

// TestSearchPollsCancel fires Cancel on its second poll: the scan, blocked or
// filtered, stops within two chunks, counts only the rows it covered, and
// returns the exact answer over that prefix. A batch polls once per chunk
// for all its queries and stops the same way.
func TestSearchPollsCancel(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 9, Clusters: 3}, 5*scanChunk+31, 5)
	s := New(raw.AppendOnes())
	q := dataset.GenerateQueries(raw, 1, 6).Row(0)
	for name, filter := range map[string]func(int32) bool{"blocked": nil, "filtered": func(int32) bool { return true }} {
		polls := 0
		opts := core.SearchOptions{K: 7, Filter: filter, Cancel: func() bool { polls++; return polls >= 2 }}
		got, st := s.Search(q, opts)
		if polls != 2 {
			t.Fatalf("%s: %d polls, want the scan to stop at the second", name, polls)
		}
		if st.Candidates == 0 || st.Candidates > 2*scanChunk || st.IPCount != st.Candidates {
			t.Fatalf("%s: stats %+v after a cancel on the second poll", name, st)
		}
		want, _ := s.Search(q, core.SearchOptions{K: 7, Budget: int(st.Candidates)})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %v, want the answer over the first %d rows %v", name, got, st.Candidates, want)
		}
	}

	queries := dataset.GenerateQueries(raw, 6, 7)
	polls := 0
	got, sts := s.SearchBatch(queries, core.SearchOptions{K: 7, Cancel: func() bool { polls++; return polls >= 2 }})
	if polls != 2 {
		t.Fatalf("batch: %d polls, want the scan to stop at the second", polls)
	}
	for i, st := range sts {
		if st.Candidates != scanChunk || st.IPCount != st.Candidates {
			t.Fatalf("batch query %d: stats %+v after a cancel on the second poll", i, st)
		}
		want, _ := s.Search(queries.Row(i), core.SearchOptions{K: 7, Budget: scanChunk})
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch query %d: %v, want the answer over the first chunk %v", i, got[i], want)
		}
	}
}

// TestSearchBatchMatchesSearch holds the batched scan to the per-query one:
// results (ids, order, distances) and Stats, for data shorter than one row
// block and data that ends inside one, query counts on every side of the
// tile's group of four, k beyond n, filtered batches (accepting nothing,
// everything — every chunk in place —, chunks that alternate between
// gathered and in place, under a cancel and with k above what the filter
// accepts), budgeted, profiled and cancelled batches. Each call
// gets fresh options, so a cancel that fires on its second poll fires on the
// second poll of each.
func TestSearchBatchMatchesSearch(t *testing.T) {
	even := func(id int32) bool { return id%2 == 0 }
	none := func(int32) bool { return false }
	all := func(int32) bool { return true }
	alternate := func(id int32) bool { return (id/scanChunk)%2 == 1 || id%3 == 0 }
	secondPoll := func() func() bool {
		polls := 0
		return func() bool { polls++; return polls >= 2 }
	}
	for _, n := range []int{1, 3, scanChunk - 1, 2*scanChunk + 88, 5*scanChunk + 9} {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 9, Clusters: 3}, n, 5)
		s := New(raw.AppendOnes())
		for _, nq := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
			queries := dataset.GenerateQueries(raw, nq, int64(6+nq))
			for name, opts := range map[string]func() core.SearchOptions{
				"k1":               func() core.SearchOptions { return core.SearchOptions{K: 1} },
				"k10":              func() core.SearchOptions { return core.SearchOptions{K: 10} },
				"k>n":              func() core.SearchOptions { return core.SearchOptions{K: n + 3} },
				"budget":           func() core.SearchOptions { return core.SearchOptions{K: 5, Budget: n/2 + 1} },
				"filter":           func() core.SearchOptions { return core.SearchOptions{K: 5, Filter: even} },
				"filter-none":      func() core.SearchOptions { return core.SearchOptions{K: 5, Filter: none} },
				"filter-all":       func() core.SearchOptions { return core.SearchOptions{K: 5, Filter: all} },
				"filter-alternate": func() core.SearchOptions { return core.SearchOptions{K: 5, Filter: alternate} },
				"filter-canceled": func() core.SearchOptions {
					return core.SearchOptions{K: 5, Filter: even, Cancel: func() bool { return true }}
				},
				"filter-second-poll": func() core.SearchOptions { return core.SearchOptions{K: 5, Filter: alternate, Cancel: secondPoll()} },
				"filter-k>accepted":  func() core.SearchOptions { return core.SearchOptions{K: n/2 + 4, Filter: even} },
				"filter-budget":      func() core.SearchOptions { return core.SearchOptions{K: 5, Budget: n/3 + 1, Filter: alternate} },
				"profile":            func() core.SearchOptions { return core.SearchOptions{K: 5, Profile: new(core.Profile)} },
				"cancel":             func() core.SearchOptions { return core.SearchOptions{K: 5, Cancel: func() bool { return false }} },
				"canceled":           func() core.SearchOptions { return core.SearchOptions{K: 5, Cancel: func() bool { return true }} },
				"second-poll":        func() core.SearchOptions { return core.SearchOptions{K: 5, Cancel: secondPoll()} },
			} {
				got, gotSt := s.SearchBatch(queries, opts())
				if len(got) != nq || len(gotSt) != nq {
					t.Fatalf("n=%d nq=%d %s: %d results and %d stats", n, nq, name, len(got), len(gotSt))
				}
				for i := 0; i < nq; i++ {
					want, wantSt := s.Search(queries.Row(i), opts())
					if !reflect.DeepEqual(got[i], want) || gotSt[i] != wantSt {
						t.Fatalf("n=%d nq=%d %s query %d:\n batch %v %+v\n search %v %+v", n, nq, name, i, got[i], gotSt[i], want, wantSt)
					}
				}
			}
		}
	}
}

// TestFilterAskedOncePerCoveredRow counts Filter calls: an exact batch asks
// once per row for all its queries, a canceled one once per row of the chunks
// it covered, and a budgeted search stops asking at the row that fills its
// budget.
func TestFilterAskedOncePerCoveredRow(t *testing.T) {
	n := 3*scanChunk + 40
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 9, Clusters: 3}, n, 5)
	s := New(raw.AppendOnes())
	queries := dataset.GenerateQueries(raw, 9, 7)
	calls := 0
	third := func(id int32) bool { calls++; return id%3 == 0 }

	s.SearchBatch(queries, core.SearchOptions{K: 4, Filter: third})
	if calls != n {
		t.Fatalf("exact batch of %d queries asked the filter %d times, want once per row (%d)", queries.N, calls, n)
	}
	calls, polls := 0, 0
	_, sts := s.SearchBatch(queries, core.SearchOptions{K: 4, Filter: third, Cancel: func() bool { polls++; return polls >= 3 }})
	if calls != 2*scanChunk || sts[0].Candidates != int64(2*scanChunk+2)/3 {
		t.Fatalf("batch canceled at its third poll asked the filter %d times and accepted %d, want %d and %d",
			calls, sts[0].Candidates, 2*scanChunk, (2*scanChunk+2)/3)
	}
	calls = 0
	_, st := s.Search(queries.Row(0), core.SearchOptions{K: 4, Budget: 100, Filter: third})
	if calls != 298 || st.Candidates != 100 {
		t.Fatalf("budget 100 asked the filter %d times and accepted %d, want 298 and 100", calls, st.Candidates)
	}
}

func TestSearchBatchPanicsOnDimension(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(vec.NewMatrix(4, 3)).SearchBatch(vec.NewMatrix(2, 4), core.SearchOptions{K: 1})
}

func BenchmarkLinearScan(b *testing.B) {
	raw := dataset.Generate(dataset.Spec{Name: "b", Family: dataset.FamilyClustered, RawDim: 128, Clusters: 8}, 10000, 7)
	data := raw.AppendOnes()
	q := dataset.GenerateQueries(raw, 1, 8).Row(0)
	s := New(data)
	b.SetBytes(data.Bytes())
	for i := 0; i < b.N; i++ {
		s.Search(q, core.SearchOptions{K: 10})
	}
}

// BenchmarkLinearScanBatch is the benchmark fixture's ground truth: 256
// queries over the 50 000-point Sift surrogate, as one SearchBatch and split
// over GOMAXPROCS goroutines, as p2h.GroundTruth runs it.
func BenchmarkLinearScanBatch(b *testing.B) {
	raw := dataset.Generate(dataset.ByName("Sift"), 50000, 1)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 256, 2)
	s := New(data)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"workers=1", func() { s.SearchBatch(queries, core.SearchOptions{K: 10}) }},
		{"workers=max", func() {
			_ = exec.ForChunks(queries.N, runtime.GOMAXPROCS(0), func(lo, hi int) error {
				s.SearchBatch(&vec.Matrix{Data: queries.Data[lo*queries.D : hi*queries.D], N: hi - lo, D: queries.D}, core.SearchOptions{K: 10})
				return nil
			})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(data.N)*float64(queries.N)), "ns/(row,query)")
		})
	}
}

// BenchmarkLinearScanFilteredBatch is the benchmark fixture's filtered ground
// truth: 256 queries over the 50 000-point Sift surrogate, keeping every
// tenth row, as one SearchBatch.
func BenchmarkLinearScanFilteredBatch(b *testing.B) {
	raw := dataset.Generate(dataset.ByName("Sift"), 50000, 1)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 256, 2)
	s := New(data)
	opts := core.SearchOptions{K: 10, Filter: func(id int32) bool { return id%10 == 0 }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SearchBatch(queries, opts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(data.N/10)*float64(queries.N)), "ns/(row,query)")
}
