package p2h

// Micro-benchmarks for the individual indexes (build and query), the codec
// and the serving layer. The paper's tables and figures have one benchmark
// each in internal/harness, beside the experiments they run.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2h/internal/dataset"
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
// opening should cost the node records' worth of heap on unix, where the
// rest of the container is mapped, and about one container's worth elsewhere.
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

// dynamicBenchIndex builds dyn-rw's index — the first 20 000 rows of the
// benchmark fixture, bulk-loaded — with 5 % more inserted on top, so it holds
// a snapshot tree and a delta, and returns it with the fixture.
func dynamicBenchIndex(b *testing.B) (*Dynamic, *Matrix) {
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
	return ix, data
}

// dynamicBench returns the container bytes of dynamicBenchIndex's index and
// the size of its live lifted vectors.
func dynamicBench(b *testing.B) (container []byte, liveBytes int64) {
	b.Helper()
	ix, _ := dynamicBenchIndex(b)
	var buf bytes.Buffer
	if err := Save(&buf, ix); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), int64(ix.N()) * int64(ix.Dim()+1) * 4
}

// BenchmarkOpenDynamic: recovery reads the container once. With -benchmem,
// B/op should be the delta rows, the liveness bytes and the snapshot tree's
// node records on unix, where the tree's sections are views of the mapped
// file (the payload pads the liveness bytes so they are aligned), and about
// one container's worth elsewhere — the embedded tree decodes off the stream,
// not out of a buffered copy of its payload.
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

// queryBench measures query latency under opts, cycling over 64 queries.
func queryBench(b *testing.B, ix Index, queries *Matrix, opts SearchOptions) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(queries.Row(i%queries.N), opts)
	}
}

func BenchmarkQueryExactBallTree(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, MustBuild(b, data, Spec{Kind: KindBallTree, Seed: 1}), queries, SearchOptions{K: 10})
}

func BenchmarkQueryExactBCTree(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1}), queries, SearchOptions{K: 10})
}

// BenchmarkQueryPredBCTree and BenchmarkQueryFilterBCTree time the same
// exact top-10 search restricted to every tenth row, once as a declarative
// tag predicate (pushed down to the node summaries, matched per row in the
// leaf scan) and once as a Filter closure on the row id.
func BenchmarkQueryPredBCTree(b *testing.B) {
	data, queries := benchData(b)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
	points := make([]PointAttrs, data.N)
	for i := 0; i < data.N; i += 10 {
		points[i].Tags = []string{"sel10"}
	}
	if err := AttachAttributes(ix, points); err != nil {
		b.Fatal(err)
	}
	queryBench(b, ix, queries, SearchOptions{K: 10, Pred: TagIs("sel10")})
}

func BenchmarkQueryFilterBCTree(b *testing.B) {
	data, queries := benchData(b)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
	queryBench(b, ix, queries, SearchOptions{K: 10, Filter: func(id int32) bool { return id%10 == 0 }})
}

// BenchmarkQueryDynamicChurned: exact top-10 searches of dynamicBenchIndex's
// index after 0.5 % of its handles, spread over the snapshot and the delta,
// are deleted — dyn-rw's read between two compactions: a leaf scan that
// drops tombstones by the liveness bitmap and a blocked scan of the delta.
func BenchmarkQueryDynamicChurned(b *testing.B) {
	ix, data := dynamicBenchIndex(b)
	for h := 0; h < ix.Handles(); h += 200 {
		ix.Delete(int32(h))
	}
	queryBench(b, ix, GenerateQueries(data, 64, 2), SearchOptions{K: 10})
}

func BenchmarkQueryExactLinearScan(b *testing.B) {
	data, queries := benchData(b)
	queryBench(b, NewLinearScan(data), queries, SearchOptions{K: 10})
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

func BenchmarkQueryBudgetBallTree(b *testing.B) {
	data, queries := benchData(b)
	budgetQueryBench(b, MustBuild(b, data, Spec{Kind: KindBallTree, Seed: 1}), data, queries)
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
// depth-first" (DESIGN.md, "One exact walk, one best-first driver"): the same exact
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

// BenchmarkPointCone is the evidence behind the point-level cone bound
// (Theorem 3) being an opt-in (SearchOptions.PointCone) rather than part of
// every BC-Tree search: on the Sift, Tiny, GloVe and Music surrogates at
// their reproduction sizes (dataset ScaledN, seed 1) the same 128 queries
// run without and with the cone, exact and at a budget of 5 % of n. One
// iteration is a pass of each in alternating order, as in
// BenchmarkExactDrivers; read the per-variant metrics, not ns/op: ms/query,
// cand/op (candidates verified per query) and, at the budget, recall@10.
func BenchmarkPointCone(b *testing.B) {
	for _, name := range []string{"Sift", "Tiny", "GloVe", "Music"} {
		data := Dedup(GenerateDataset(name, dataset.ByName(name).ScaledN, 1))
		queries := GenerateQueries(data, 128, 2)
		gt := GroundTruth(data, queries, 10)
		ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
		for _, budget := range []int{0, data.N / 20} {
			mode := "exact"
			if budget > 0 {
				mode = "budget5pct"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				opts := [2]SearchOptions{{K: 10, Budget: budget}, {K: 10, Budget: budget, PointCone: true}}
				var spent [2]time.Duration
				var cands [2]int64
				var recall [2]float64
				passes := 0
				for ; b.Loop(); passes++ {
					for j := range opts {
						o := (passes + j) % 2
						t0 := time.Now()
						for i := 0; i < queries.N; i++ {
							res, st := ix.Search(queries.Row(i), opts[o])
							cands[o] += st.Candidates
							recall[o] += Recall(res, gt[i])
						}
						spent[o] += time.Since(t0)
					}
				}
				n := float64(passes * queries.N)
				for o, v := range []string{"off", "cone"} {
					b.ReportMetric(spent[o].Seconds()*1e3/n, v+"-ms/query")
					b.ReportMetric(float64(cands[o])/n, v+"-cand/op")
					if budget > 0 {
						b.ReportMetric(recall[o]/n, v+"-recall")
					}
				}
			})
		}
	}
}

// BenchmarkPredPushdown is the evidence the per-node attribute summaries
// have to earn their place with: on the benchmark fixture's BC-Tree (the
// 50 000-point Sift surrogate, seed 1) the same 256 queries run restricted
// by a tag predicate (Pred, pushed down to the summaries) and by the
// equivalent Filter closure, exact and at budget 500. Three tag sets: every
// tenth row (id % 10, spread over every node, so the summaries can skip
// nothing), and two that follow the corpus's geometry — the rows whose
// offsets from the mean project positively onto two (quadrant, about 25 %)
// and three (octant, about 12.5 %) fixed random directions. One iteration is
// a Pred pass and a Filter pass in alternating order, as in
// BenchmarkExactDrivers; read the ms/query metrics, not ns/op. skipped/query
// is the points per query the summaries ruled out, sel the selected share.
func BenchmarkPredPushdown(b *testing.B) {
	data := Dedup(GenerateDataset("Sift", 50000, 1))
	queries := GenerateQueries(data, 256, 2)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})

	// Three fixed Gaussian directions and the data mean.
	rng := rand.New(rand.NewSource(7))
	dirs := make([][]float64, 3)
	for j := range dirs {
		dirs[j] = make([]float64, data.D)
		for k := range dirs[j] {
			dirs[j][k] = rng.NormFloat64()
		}
	}
	mean := make([]float64, data.D)
	for i := 0; i < data.N; i++ {
		for k, v := range data.Row(i) {
			mean[k] += float64(v) / float64(data.N)
		}
	}
	tags := []string{"mod10", "quadrant", "octant"}
	sel := make([][]bool, len(tags))
	for t := range sel {
		sel[t] = make([]bool, data.N)
	}
	points := make([]PointAttrs, data.N)
	for i := 0; i < data.N; i++ {
		positive := 0 // leading directions the row's offset projects positively onto
		for _, dir := range dirs {
			var p float64
			for k, v := range data.Row(i) {
				p += (float64(v) - mean[k]) * dir[k]
			}
			if p <= 0 {
				break
			}
			positive++
		}
		sel[0][i], sel[1][i], sel[2][i] = i%10 == 0, positive >= 2, positive == 3
		for t, tag := range tags {
			if sel[t][i] {
				points[i].Tags = append(points[i].Tags, tag)
			}
		}
	}
	if err := AttachAttributes(ix, points); err != nil {
		b.Fatal(err)
	}

	for t, tag := range tags {
		selected := 0
		for _, ok := range sel[t] {
			if ok {
				selected++
			}
		}
		for _, budget := range []int{0, 500} {
			name := tag + "/exact"
			if budget > 0 {
				name = tag + "/budget500"
			}
			b.Run(name, func(b *testing.B) {
				in := sel[t]
				opts := [2]SearchOptions{
					{K: 10, Budget: budget, Pred: TagIs(tag)},
					{K: 10, Budget: budget, Filter: func(id int32) bool { return in[id] }},
				}
				var spent [2]time.Duration
				var skipped int64
				passes := 0
				for ; b.Loop(); passes++ {
					for j := range opts {
						o := (passes + j) % 2
						t0 := time.Now()
						for i := 0; i < queries.N; i++ {
							_, st := ix.Search(queries.Row(i), opts[o])
							skipped += st.FilterSkippedPoints
						}
						spent[o] += time.Since(t0)
					}
				}
				n := float64(passes * queries.N)
				b.ReportMetric(spent[0].Seconds()*1e3/n, "pred-ms/query")
				b.ReportMetric(spent[1].Seconds()*1e3/n, "filter-ms/query")
				b.ReportMetric(float64(skipped)/n, "skipped/query")
				b.ReportMetric(float64(selected)/float64(data.N), "sel")
			})
		}
	}
}

// BenchmarkSearchBatchExact is the headline number of the batched execution
// engine: one uncached batch of 64 exact top-10 queries on a BC-Tree,
// answered per query (a plain loop over Search) versus as one SearchBatch
// call, whose exact walk serves the whole group. Both variants run on one
// goroutine so the ratio isolates the walk's algorithmic effect — shared node
// visits, per-prefix multi-query leaf kernels, conversion-free float64 inner
// loops — rather than parallelism. The pred- and filter- pairs restrict the
// same batch to every tenth row, as BenchmarkQueryPredBCTree and
// BenchmarkQueryFilterBCTree do: the walk shares its node visits and the
// predicate's summary skips, and every query runs its own leaf pipeline.
// Results of the two paths are bitwise identical (the equivalence tests pin
// this); only the execution differs.
func BenchmarkSearchBatchExact(b *testing.B) {
	data, _ := benchData(b)
	queries := GenerateQueries(data, 64, 2)
	ix := MustBuild(b, data, Spec{Kind: KindBCTree, Seed: 1})
	points := make([]PointAttrs, data.N)
	for i := 0; i < data.N; i += 10 {
		points[i].Tags = []string{"sel10"}
	}
	if err := AttachAttributes(ix, points); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		prefix string
		opts   SearchOptions
	}{
		{"", SearchOptions{K: 10}},
		{"pred-", SearchOptions{K: 10, Pred: TagIs("sel10")}},
		{"filter-", SearchOptions{K: 10, Filter: func(id int32) bool { return id%10 == 0 }}},
	} {
		b.Run(c.prefix+"perquery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for qi := 0; qi < queries.N; qi++ {
					ix.Search(queries.Row(qi), c.opts)
				}
			}
		})
		b.Run(c.prefix+"batched", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.SearchBatch(queries, c.opts)
			}
		})
	}
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
