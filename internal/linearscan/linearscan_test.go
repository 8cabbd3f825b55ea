package linearscan

import (
	"math"
	"reflect"
	"testing"

	"p2h/internal/core"
	"p2h/internal/dataset"
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

func TestGroundTruthShapes(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 12, Clusters: 4}, 200, 1)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 7, 2)
	gt := GroundTruth(data, queries, 5)
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

// TestSearchBlockedMatchesPerRow holds the blocked scan to the per-row scan an
// accept-all Filter selects: same results and same Stats, with budgets on
// either side of every chunk boundary.
func TestSearchBlockedMatchesPerRow(t *testing.T) {
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 9, Clusters: 3}, 2*scanChunk+88, 5)
	data := raw.AppendOnes()
	queries := dataset.GenerateQueries(raw, 4, 6)
	s := New(data)
	all := func(int32) bool { return true }
	for _, budget := range []int{0, 1, scanChunk - 1, scanChunk, scanChunk + 1, 2 * scanChunk, data.N - 1, data.N, data.N + 7} {
		for i := 0; i < queries.N; i++ {
			got, gotSt := s.Search(queries.Row(i), core.SearchOptions{K: 7, Budget: budget})
			want, wantSt := s.Search(queries.Row(i), core.SearchOptions{K: 7, Budget: budget, Filter: all})
			if gotSt != wantSt {
				t.Fatalf("budget %d query %d: stats %+v, per row %+v", budget, i, gotSt, wantSt)
			}
			if len(got) != len(want) {
				t.Fatalf("budget %d query %d: %d results, per row %d", budget, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("budget %d query %d rank %d: %+v, per row %+v", budget, i, j, got[j], want[j])
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
// tile's group of four, k beyond n, and every kind of batch that takes the
// per-query path.
func TestSearchBatchMatchesSearch(t *testing.T) {
	even := func(id int32) bool { return id%2 == 0 }
	for _, n := range []int{1, 3, scanChunk - 1, 2*scanChunk + 88} {
		raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 9, Clusters: 3}, n, 5)
		s := New(raw.AppendOnes())
		for _, nq := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
			queries := dataset.GenerateQueries(raw, nq, int64(6+nq))
			for name, opts := range map[string]core.SearchOptions{
				"k1":       {K: 1},
				"k10":      {K: 10},
				"k>n":      {K: n + 3},
				"budget":   {K: 5, Budget: n/2 + 1},
				"filter":   {K: 5, Filter: even},
				"profile":  {K: 5, Profile: new(core.Profile)},
				"cancel":   {K: 5, Cancel: func() bool { return false }},
				"canceled": {K: 5, Cancel: func() bool { return true }},
			} {
				got, gotSt := s.SearchBatch(queries, opts)
				if len(got) != nq || len(gotSt) != nq {
					t.Fatalf("n=%d nq=%d %s: %d results and %d stats", n, nq, name, len(got), len(gotSt))
				}
				for i := 0; i < nq; i++ {
					want, wantSt := s.Search(queries.Row(i), opts)
					if !reflect.DeepEqual(got[i], want) || gotSt[i] != wantSt {
						t.Fatalf("n=%d nq=%d %s query %d:\n batch %v %+v\n search %v %+v", n, nq, name, i, got[i], gotSt[i], want, wantSt)
					}
				}
			}
		}
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
// queries over the 50 000-point Sift surrogate, as one SearchBatch and as
// GroundTruth splits them over GOMAXPROCS goroutines.
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
		{"workers=max", func() { GroundTruth(data, queries, 10) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(data.N)*float64(queries.N)), "ns/(row,query)")
		})
	}
}
