package shard

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"p2h/internal/attr"
	"p2h/internal/core"
	"p2h/internal/dataset"
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

func setup(t *testing.T, n int, seed int64) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	raw := dataset.Generate(dataset.Spec{Name: "t", Family: dataset.FamilyClustered, RawDim: 16, Clusters: 8}, n, seed)
	raw = dataset.Dedup(raw)
	return raw.AppendOnes(), dataset.GenerateQueries(raw, 10, seed+1)
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(vec.NewMatrix(0, 3), Config{})
}

func TestShardsPartitionData(t *testing.T) {
	data, _ := setup(t, 1000, 1)
	ix := Build(data.Clone(), Config{Shards: 7, Seed: 2})
	if ix.Shards() != 7 {
		t.Fatalf("shards %d", ix.Shards())
	}
	// Every shard tree speaks global ids: row p of its storage is the vector
	// Build was handed as row ids[p], and no id is in two shards.
	seen := make([]bool, data.N)
	total := 0
	for _, tr := range ix.trees {
		points, ids := tr.Rows()
		total += len(ids)
		for p, id := range ids {
			if seen[id] {
				t.Fatalf("id %d in two shards", id)
			}
			seen[id] = true
			if !slices.Equal(points.Row(p), data.Row(int(id))) {
				t.Fatalf("id %d does not label its own vector", id)
			}
		}
	}
	if total != data.N {
		t.Fatalf("shards cover %d of %d", total, data.N)
	}
}

// TestPlanIsBuildsPartition checks that Plan lists, shard by shard and in
// storage order, the global ids Build's trees were handed.
func TestPlanIsBuildsPartition(t *testing.T) {
	data, _ := setup(t, 700, 21)
	cfg := Config{Shards: 5, Seed: 22}
	plan := Plan(data.Clone(), cfg)
	ix := Build(data.Clone(), cfg)
	if len(plan) != ix.Shards() {
		t.Fatalf("plan has %d parts, index %d shards", len(plan), ix.Shards())
	}
	for si, tr := range ix.trees {
		_, ids := tr.Rows()
		got, want := slices.Sorted(slices.Values(ids)), slices.Sorted(slices.Values(plan[si]))
		if !slices.Equal(got, want) {
			t.Fatalf("shard %d holds other ids than the plan's part", si)
		}
	}
}

// TestBuildIsTheSameAtAnyWidth pins that building the shard trees concurrently
// changes nothing: the saved bytes are identical at GOMAXPROCS 1, 2 and 4.
func TestBuildIsTheSameAtAnyWidth(t *testing.T) {
	data, _ := setup(t, 900, 23)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		if err := Build(data.Clone(), Config{Shards: 6, Workers: 2, LeafSize: 20, Seed: 24}).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("GOMAXPROCS=%d builds a different index than GOMAXPROCS=1", procs)
		}
	}
}

func TestSearchExactMatchesLinearScan(t *testing.T) {
	data, queries := setup(t, 900, 3)
	scan := linearscan.New(data)
	for _, shards := range []int{1, 2, 5, 16} {
		ix := Build(data.Clone(), Config{Shards: shards, LeafSize: 25, Seed: 4})
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			got, _ := ix.Search(q, core.SearchOptions{K: 7})
			want, _ := scan.Search(q, core.SearchOptions{K: 7})
			if len(got) != len(want) {
				t.Fatalf("shards=%d query %d: %d results, want %d", shards, qi, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
					t.Fatalf("shards=%d query %d rank %d: %v != %v", shards, qi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSearchSequentialWorkerMatchesParallel(t *testing.T) {
	data, queries := setup(t, 800, 5)
	par := Build(data.Clone(), Config{Shards: 8, Seed: 6})
	seq := Build(data, Config{Shards: 8, Seed: 6, Workers: 1})
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		a, _ := par.Search(q, core.SearchOptions{K: 5})
		b, _ := seq.Search(q, core.SearchOptions{K: 5})
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: parallel %v vs sequential %v", qi, i, a[i], b[i])
			}
		}
	}
}

func TestSearchBudgetSharedAcrossShards(t *testing.T) {
	data, queries := setup(t, 1200, 7)
	ix := Build(data, Config{Shards: 6, Seed: 8})
	for _, budget := range []int{6, 60, 600} {
		for qi := 0; qi < queries.N; qi++ {
			_, st := ix.Search(queries.Row(qi), core.SearchOptions{K: 5, Budget: budget})
			// Each shard's ceil share can add at most one extra candidate.
			if st.Candidates > int64(budget+ix.Shards()) {
				t.Fatalf("budget %d exceeded: %d", budget, st.Candidates)
			}
		}
	}
}

func TestMoreShardsThanPoints(t *testing.T) {
	rows := [][]float32{{1, 0}, {0, 1}, {1, 1}}
	data := vec.FromRows(rows).AppendOnes()
	ix := Build(data, Config{Shards: 64, Seed: 1})
	if ix.Shards() > data.N {
		t.Fatalf("shards %d > n %d", ix.Shards(), data.N)
	}
	res, _ := ix.Search([]float32{1, 0, -1}, core.SearchOptions{K: 3})
	if len(res) != 3 {
		t.Fatalf("want all 3 points, got %d", len(res))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	data, queries := setup(t, 500, 9)
	a := Build(data.Clone(), Config{Shards: 4, Seed: 10})
	b := Build(data, Config{Shards: 4, Seed: 10})
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		ra, _ := a.Search(q, core.SearchOptions{K: 5})
		rb, _ := b.Search(q, core.SearchOptions{K: 5})
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("same seed, different results at %d", i)
			}
		}
	}
}

// TestSearchBoundedConcurrency pins the fan-out's goroutine discipline:
// exactly min(Workers, Shards) goroutines process shards — never one per
// shard — so a search over many shards cannot flood the scheduler. The
// filter samples the process goroutine count mid-search; the old
// spawn-then-gate pattern (one goroutine per shard parked on a semaphore)
// fails this even though its semaphore bounded execution.
func TestSearchBoundedConcurrency(t *testing.T) {
	data, queries := setup(t, 800, 13)
	const workers = 2
	ix := Build(data, Config{Shards: 16, Seed: 14, Workers: workers})

	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	observe := func(int32) bool {
		g := int64(runtime.NumGoroutine())
		for {
			p := peak.Load()
			if g <= p || peak.CompareAndSwap(p, g) {
				break
			}
		}
		return true
	}
	for qi := 0; qi < queries.N; qi++ {
		ix.Search(queries.Row(qi), core.SearchOptions{K: 3, Filter: observe})
		// A worker that has released the search's WaitGroup may not have
		// exited yet; it belongs to this search, not to the next one's count.
		for runtime.NumGoroutine() > baseline {
			runtime.Gosched()
		}
	}
	if extra := peak.Load() - int64(baseline); extra > workers {
		t.Fatalf("search ran %d extra goroutines, Workers=%d allows at most %d", extra, workers, workers)
	}
}

// TestSearchBatchMatchesSequential checks the sharded batched path returns
// bitwise-identical results to per-query Search across exact, budgeted,
// filtered and k>n options.
func TestSearchBatchMatchesSequential(t *testing.T) {
	data, queries := setup(t, 1100, 15)
	for i := 0; i < queries.N; i++ {
		q := queries.Row(i)
		vec.Normalize(q[:len(q)-1])
	}
	ix := Build(data, Config{Shards: 5, LeafSize: 30, Seed: 16})
	for _, tc := range []struct {
		name string
		opts core.SearchOptions
	}{
		{"exact", core.SearchOptions{K: 7}},
		{"kBig", core.SearchOptions{K: data.N + 3}},
		{"budget", core.SearchOptions{K: 7, Budget: 90}},
		{"filtered", core.SearchOptions{K: 7, Filter: func(id int32) bool { return id%4 != 0 }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch, _ := ix.SearchBatch(queries, tc.opts)
			for qi := 0; qi < queries.N; qi++ {
				want, _ := ix.Search(queries.Row(qi), tc.opts)
				if len(batch[qi]) != len(want) {
					t.Fatalf("query %d: %d results, want %d", qi, len(batch[qi]), len(want))
				}
				for i := range want {
					if batch[qi][i] != want[i] {
						t.Fatalf("query %d rank %d: %+v != %+v", qi, i, batch[qi][i], want[i])
					}
				}
			}
		})
	}
}

func TestIndexBytesSumsShards(t *testing.T) {
	data, _ := setup(t, 600, 11)
	ix := Build(data, Config{Shards: 3, Seed: 12})
	if ix.IndexBytes() <= 0 {
		t.Fatal("bytes must be positive")
	}
	var manual int64
	for _, tr := range ix.trees {
		manual += tr.IndexBytes()
	}
	if ix.IndexBytes() != manual {
		t.Fatalf("accounting %d != %d", ix.IndexBytes(), manual)
	}
}

// TestShardedAttrBytesCountedOnce pins the attribute accounting: the global
// store once — every shard tree attaches that same store, none a copy of its
// rows — and each shard's summaries once.
func TestShardedAttrBytesCountedOnce(t *testing.T) {
	data, _ := setup(t, 600, 11)
	ix := Build(data, Config{Shards: 3, Seed: 12})
	bare := ix.IndexBytes()
	pts := make([]attr.Point, ix.N())
	for i := range pts {
		pts[i] = attr.Point{Tags: []string{"even", "odd"}[i%2 : i%2+1], Ints: map[string]int64{"row": int64(i)}}
	}
	st, err := attr.Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachAttrs(st); err != nil {
		t.Fatal(err)
	}
	want := st.MemBytes()
	for _, tr := range ix.trees {
		if tr.Attrs() != st {
			t.Fatal("a shard tree attached something other than the global store")
		}
		want += tr.IndexBytes() - st.MemBytes() // the tree's own structures and summaries
	}
	if want <= bare+st.MemBytes() {
		t.Fatal("the shard trees built no summaries")
	}
	if got := ix.IndexBytes(); got != want {
		t.Fatalf("IndexBytes %d with attributes, want %d: the store once and every shard's summaries once", got, want)
	}
	if err := ix.AttachAttrs(nil); err != nil || ix.IndexBytes() != bare {
		t.Fatalf("detaching left %d bytes, want %d (err %v)", ix.IndexBytes(), bare, err)
	}
}
