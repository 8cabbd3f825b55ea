package p2h

// Micro-benchmarks for the individual indexes (build and query), the codec
// and the serving layer. The paper's tables and figures have one benchmark
// each in internal/harness, beside the experiments they run.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchData prepares a 10k x 128 clustered data set and queries outside the
// timed region.
func benchData(b *testing.B) (*Matrix, *Matrix) {
	b.Helper()
	data := Dedup(GenerateDataset("Sift", 10000, 1))
	queries := GenerateQueries(data, 64, 2)
	return data, queries
}

func BenchmarkBuildBallTree(b *testing.B) {
	data, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(b, data, Spec{Kind: KindBallTree, Seed: 1})
	}
}

func BenchmarkBuildBCTree(b *testing.B) {
	data, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
	}
}

// BenchmarkBuildSharded: the split and four shard trees inside the one lifted
// matrix the build is handed. With -benchmem, B/op should be about that matrix
// plus the trees' structures, not two copies of the data.
func BenchmarkBuildSharded(b *testing.B) {
	data, _ := benchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(b, data, Spec{Kind: KindSharded, Shards: 4, Seed: 1})
	}
}

// codecBench builds the benchmark fixture's BC-Tree (n=50k Sift surrogate)
// and saves it once; the two codec benchmarks below report throughput against
// the container's size and, with -benchmem, what a round trip allocates —
// opening should cost about one container's worth of heap, not several.
func codecBench(b *testing.B) (ix Index, path string, size int64) {
	b.Helper()
	ix = MustBuild(b, Dedup(GenerateDataset("Sift", 50000, 1)), Spec{Kind: KindBCTree, Seed: 1})
	path = filepath.Join(b.TempDir(), "bc.p2h")
	if err := SaveFile(path, ix); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return ix, path, fi.Size()
}

func BenchmarkSaveBCTree(b *testing.B) {
	ix, path, size := codecBench(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SaveFile(path, ix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenBCTree(b *testing.B) {
	_, path, size := codecBench(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(path); err != nil {
			b.Fatal(err)
		}
	}
}

// dynamicBench builds dyn-rw's index — the first 20 000 rows of the benchmark
// fixture, bulk-loaded — with 5 % more inserted on top, so it holds a snapshot
// tree and a delta, and returns its container bytes and the size of its live
// lifted vectors.
func dynamicBench(b *testing.B) (container []byte, liveBytes int64) {
	b.Helper()
	data := Dedup(GenerateDataset("Sift", 50000, 1))
	const seedN = 20000
	seed := make([]int32, seedN)
	for i := range seed {
		seed[i] = int32(i)
	}
	ix := MustBuild(b, data.SubsetRows(seed), Spec{Kind: KindDynamic, Seed: 1}).(*Dynamic)
	for i := seedN; i < seedN+seedN/20; i++ {
		ix.Insert(data.Row(i))
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), int64(ix.N()) * int64(ix.Dim()+1) * 4
}

// BenchmarkOpenDynamic: recovery reads the container once. With -benchmem,
// B/op should be about one container's worth — the embedded tree decodes off
// the stream, not out of a buffered copy of its payload.
func BenchmarkOpenDynamic(b *testing.B) {
	container, _ := dynamicBench(b)
	path := filepath.Join(b.TempDir(), "dyn.p2h")
	if err := os.WriteFile(path, container, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(container)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicCompact: one compaction cycle of that index, throughput
// against the live data folded. B/op should be about the live data once — the
// gathered rows, which the new tree is built inside — plus the tree's own
// structures.
func BenchmarkDynamicCompact(b *testing.B) {
	container, liveBytes := dynamicBench(b)
	b.SetBytes(liveBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, err := Load(bytes.NewReader(container))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if !ix.(*Dynamic).Compact() {
			b.Fatal("nothing to compact")
		}
	}
}

func BenchmarkBuildNH(b *testing.B) {
	data, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(b, data, Spec{Kind: KindNH, M: 16, Seed: 1})
	}
}

func BenchmarkBuildFH(b *testing.B) {
	data, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(b, data, Spec{Kind: KindFH, M: 16, Seed: 1})
	}
}

// queryBench measures exact top-10 query latency, cycling over 64 queries.
func queryBench(b *testing.B, ix Index, queries *Matrix) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(queries.Row(i%queries.N), SearchOptions{K: 10})
	}
}

func BenchmarkQueryExactBallTree(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, MustBuild(b, data, Spec{Kind: KindBallTree, Seed: 1}), queries)
}

func BenchmarkQueryExactBCTree(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1}), queries)
}

func BenchmarkQueryExactBallTreeQuant(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, MustBuild(b, data, Spec{Kind: KindBallTree, Seed: 1, Quantize: true}), queries)
}

func BenchmarkQueryExactBCTreeQuant(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1, Quantize: true}), queries)
}

func BenchmarkQueryExactLinearScan(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, NewLinearScan(data), queries)
}

// budgetQueryBench measures latency at equal quality, not at an equal
// candidate count: every index searches at the smallest budget TuneBudget
// finds for recall@10 0.8 on the benchmark's own queries, and reports that
// budget and the recall it measures there beside ns/op.
func budgetQueryBench(b *testing.B, ix Index, data, queries *Matrix) {
	b.Helper()
	gt := GroundTruth(data, queries, 10)
	opts := SearchOptions{K: 10, Budget: TuneBudget(ix, queries, gt, 10, 0.8)}
	var recall float64
	for i := 0; i < queries.N; i++ {
		res, _ := ix.Search(queries.Row(i), opts)
		recall += Recall(res, gt[i]) / float64(queries.N)
	}
	// b.Loop runs this function once per -count instead of once per b.N
	// ramp step, so the tuning above (seconds for NH and FH) is paid once.
	for i := 0; b.Loop(); i++ {
		ix.Search(queries.Row(i%queries.N), opts)
	}
	b.ReportMetric(float64(opts.Budget), "budget")
	b.ReportMetric(recall, "recall")
}

func BenchmarkQueryBudgetBCTree(b *testing.B) {
	data, queries := benchData(b)
	budgetQueryBench(b, MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1}), data, queries)
}

func BenchmarkQueryBudgetNH(b *testing.B) {
	data, queries := benchData(b)
	budgetQueryBench(b, MustBuild(b, data, Spec{Kind: KindNH, M: 16, Seed: 1}), data, queries)
}

func BenchmarkQueryBudgetFH(b *testing.B) {
	data, queries := benchData(b)
	budgetQueryBench(b, MustBuild(b, data, Spec{Kind: KindFH, M: 16, Seed: 1}), data, queries)
}

// BenchmarkExactDrivers is the measurement behind "exact search stays
// depth-first" (DESIGN.md, "Two drivers, one node step"): the same exact
// answers from the depth-first driver (Budget 0) and from the best-first one
// (Budget n, bitwise exact by TestBudgetedSearchProperties). One iteration is
// a pass over all queries by each driver, in alternating order, so the two are
// measured in the same process under the same drift; it runs at the benchmark
// fixture's size, where the points no longer fit in cache and the order leaves
// are scanned in shows. Read the two ms/query metrics, not ns/op; use
// -benchtime=20x for twenty passes each.
func BenchmarkExactDrivers(b *testing.B) {
	data := Dedup(GenerateDataset("Sift", 50000, 1))
	queries := GenerateQueries(data, 256, 2)
	drivers := [2]SearchOptions{{K: 10}, {K: 10, Budget: data.N}}
	for _, c := range []struct {
		name string
		ix   Index
	}{
		{"BCTree", MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})},
		{"BallTree", MustBuild(b, data, Spec{Kind: KindBallTree, Seed: 1})},
	} {
		b.Run(c.name, func(b *testing.B) {
			var spent [2]time.Duration
			passes := 0
			for ; b.Loop(); passes++ {
				for j := range drivers {
					d := (passes + j) % 2
					t0 := time.Now()
					for i := 0; i < queries.N; i++ {
						c.ix.Search(queries.Row(i), drivers[d])
					}
					spent[d] += time.Since(t0)
				}
			}
			perQuery := func(d time.Duration) float64 {
				return d.Seconds() * 1e3 / float64(passes*queries.N)
			}
			b.ReportMetric(perQuery(spent[0]), "depth-first-ms/query")
			b.ReportMetric(perQuery(spent[1]), "best-first-ms/query")
		})
	}
}

// BenchmarkSearchBatchExact is the headline number of the batched execution
// engine: one uncached batch of 64 exact top-10 queries on a BC-Tree,
// answered per query (the pre-engine SearchBatch behavior: a plain loop
// over Search) versus through the native shared batched traversal. Both
// variants run on one goroutine so the ratio isolates the engine's
// algorithmic effect — shared node visits, per-prefix multi-query leaf
// kernels, conversion-free float64 inner loops — rather than parallelism.
// Results of the two paths are bitwise identical (the equivalence tests pin
// this); only the execution differs.
func BenchmarkSearchBatchExact(b *testing.B) {
	data, _ := benchData(b)
	queries := GenerateQueries(data, 64, 2)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1}).(BatchIndex)
	opts := SearchOptions{K: 10}

	b.Run("perquery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for qi := 0; qi < queries.N; qi++ {
				ix.Search(queries.Row(qi), opts)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.SearchBatch(queries, opts)
		}
	})
}

// BenchmarkServerBatched is the serving layer with many callers and the
// cache off: eight callers per GOMAXPROCS each run exact searches on their
// own goroutine under the server's worker slots, so the number is the
// uncached steady-state throughput of slot hand-off plus the tree. (The name
// predates caller-runs serving and is kept so bench_regression.sh has base
// lines to compare against.)
func BenchmarkServerBatched(b *testing.B) {
	data, queries := benchData(b)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
	srv := NewServer(ix, ServerOptions{CacheEntries: -1})
	defer srv.Close()
	opts := SearchOptions{K: 10}
	b.SetParallelism(8) // many more callers than slots
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			srv.Search(queries.Row(i%queries.N), opts)
			i++
		}
	})
}

// BenchmarkServerSearchBatch is the batch entry, cache off: one caller hands
// the server 64 exact queries per SearchBatchCtx call, which splits them
// into one shared traversal per worker slot. ns/op is per batch.
func BenchmarkServerSearchBatch(b *testing.B) {
	data, _ := benchData(b)
	queries := GenerateQueries(data, 64, 2)
	rows := make([][]float32, queries.N)
	for i := range rows {
		rows[i] = queries.Row(i)
	}
	srv := NewServer(MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1}), ServerOptions{CacheEntries: -1})
	defer srv.Close()
	opts := SearchOptions{K: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.SearchBatchCtx(context.Background(), rows, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServer compares three ways of answering the same exact top-10
// workload on one BC-Tree: a sequential single-query loop (the baseline),
// the server with its result cache disabled (worker-slot parallelism
// alone), and the full server (slots + cache; the workload cycles over 64
// distinct hyperplanes, so steady state is nearly all cache hits). The server variants drive one concurrent caller per
// GOMAXPROCS via RunParallel — the serving scenario the layer exists for.
func BenchmarkServer(b *testing.B) {
	data, queries := benchData(b)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
	opts := SearchOptions{K: 10}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Search(queries.Row(i%queries.N), opts)
		}
	})
	serverBench := func(cacheEntries int) func(b *testing.B) {
		return func(b *testing.B) {
			srv := NewServer(ix, ServerOptions{CacheEntries: cacheEntries})
			defer srv.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					srv.Search(queries.Row(i%queries.N), opts)
					i++
				}
			})
		}
	}
	b.Run("server-nocache", serverBench(-1))
	b.Run("server-cached", serverBench(0))
}
