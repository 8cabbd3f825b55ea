// Package shard implements the scalable variant the paper's Section
// III-A(4) sketches: because Ball-Tree is a space partition method, a
// massive data set can be split into fine granularities and searched in
// parallel. The index holds one BC-Tree per shard; a query fans out over a
// bounded pool of goroutines and the per-shard top-k results merge into an
// exact global top-k.
//
// Shards are formed by recursive seed-grow splitting (the trees' own
// partition rule), so each shard covers a compact region and its tree prunes
// as well as a monolithic tree over that region would.
//
// One id space, one copy: the split reorders the one matrix Build is handed
// into a contiguous block per shard, each shard tree is built inside its block
// (balltree.BuildOwned) and labelled with the global row numbers of its
// points. A shard tree therefore reports, filters by and orders ties by global
// ids itself; the index keeps no id map and translates nothing.
package shard

import (
	"fmt"
	"math/rand"
	"runtime"

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/core"
	"p2h/internal/exec"
	"p2h/internal/partition"
	"p2h/internal/vec"
)

// Config parameterizes the sharded index.
type Config struct {
	// Shards is the number of partitions (and the maximum query
	// parallelism). Zero selects GOMAXPROCS.
	Shards int
	// LeafSize is each shard tree's N0; zero selects the BC-Tree default.
	LeafSize int
	// Seed drives the shard partitioning and tree construction.
	Seed int64
	// Workers bounds the goroutines used per query. Zero selects Shards;
	// 1 makes queries sequential. A search runs at most GOMAXPROCS of them,
	// so the bound an index records, and the bytes Save writes, do not
	// depend on the host that built it.
	Workers int
}

func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = c.Shards
	}
	return c
}

// Index is a sharded BC-Tree.
type Index struct {
	trees   []*balltree.Tree // each labelled with the global ids of its points
	n, d    int
	workers int

	// attrs is the global attribute store (row = global data id), attached to
	// every shard tree as it is: a tree's ids are rows of it, so predicate
	// pushdown runs per shard and opts.Pred passes through untranslated.
	attrs *attr.Store
}

// Plan returns the row partition Build would use for this data and config:
// one slice of row indices per shard, in shard order. It is deterministic in
// cfg.Seed and exactly the partition a Build with the same inputs produces,
// so out-of-process deployments (one tree per daemon) can mirror the
// in-process sharding bit for bit. Like Build it takes ownership of data and
// reorders its rows.
//
// What such a deployment does not mirror by itself is the order of ties. A
// shard tree here reports global ids and orders equal distances by them; a
// member tree built over the rows plan[i] selects numbers its points from
// zero, so a router merging member answers sees ties in member-local order
// unless plan[i] ascends.
func Plan(data *vec.Matrix, cfg Config) [][]int32 {
	ids, spans := split(data, cfg.normalized())
	parts := make([][]int32, len(spans))
	for si, sp := range spans {
		parts[si] = ids[sp.lo:sp.hi:sp.hi]
	}
	return parts
}

// Build partitions the lifted data into cfg.Shards compact regions and
// builds one BC-Tree per region, inside that region's block of data: Build
// takes ownership of the matrix, which becomes the trees' storage. The trees
// have their own seeds and disjoint blocks, so they are built
// min(GOMAXPROCS, shards) at a time; the result does not depend on how many.
func Build(data *vec.Matrix, cfg Config) *Index {
	cfg = cfg.normalized()
	ids, spans := split(data, cfg)
	d := data.D
	ix := &Index{n: data.N, d: d, workers: cfg.Workers, trees: make([]*balltree.Tree, len(spans))}
	exec.ForEach(len(spans), runtime.GOMAXPROCS(0), func(si int) {
		sp := spans[si]
		block := &vec.Matrix{Data: data.Data[sp.lo*d : sp.hi*d : sp.hi*d], N: sp.hi - sp.lo, D: d}
		ix.trees[si] = balltree.BuildOwned(block, ids[sp.lo:sp.hi], balltree.BC, balltree.Config{
			LeafSize: cfg.LeafSize,
			Seed:     cfg.Seed + int64(si) + 1,
		})
	})
	return ix
}

// span is the block of positions [lo, hi) one shard owns.
type span struct{ lo, hi int }

// split reorders the rows of data in place into one contiguous block per
// shard by recursively halving the largest remaining part with the seed-grow
// rule until cfg.Shards parts exist. ids[p] is the original row number of the
// row now at position p; spans lists the blocks in shard order (a split leaves
// the left half in the part's place and appends the right half).
func split(data *vec.Matrix, cfg Config) (ids []int32, spans []span) {
	if data == nil || data.N == 0 {
		panic("shard: empty data")
	}
	want := min(cfg.Shards, data.N)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ids = make([]int32, data.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	spans = []span{{0, data.N}}
	dist := make([]float32, 2*data.N) // SeedGrow's scratch; no part is larger
	for len(spans) < want {
		// Take the largest part. Linear scan: part counts are tiny.
		largest := 0
		for i, sp := range spans {
			if sp.hi-sp.lo > spans[largest].hi-spans[largest].lo {
				largest = i
			}
		}
		sp := spans[largest]
		if sp.hi-sp.lo < 2 {
			break // cannot split further
		}
		mid := sp.lo + partition.SeedGrow(data.Data[sp.lo*data.D:sp.hi*data.D], ids[sp.lo:sp.hi], rng, dist)
		spans[largest] = span{sp.lo, mid}
		spans = append(spans, span{mid, sp.hi})
	}
	return ids, spans
}

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.n }

// Dim returns the lifted dimensionality.
func (ix *Index) Dim() int { return ix.d }

// Shards returns the number of shards.
func (ix *Index) Shards() int { return len(ix.trees) }

// Trees returns the shard trees in shard order, the order Save writes them.
func (ix *Index) Trees() []*balltree.Tree { return ix.trees }

// Workers returns the per-query goroutine bound the index was built with.
func (ix *Index) Workers() int { return ix.workers }

// LeafSize returns the shard trees' maximum leaf size N0.
func (ix *Index) LeafSize() int { return ix.trees[0].LeafSize() }

// AttachAttrs binds a per-point attribute store (row i = global data id i).
// Every shard tree attaches the same store — its ids are global, so its
// pushdown summaries and a global predicate speak one id space. Passing nil
// detaches.
func (ix *Index) AttachAttrs(st *attr.Store) error {
	if st != nil && st.N() != ix.n {
		return fmt.Errorf("shard: attribute store covers %d rows, index holds %d", st.N(), ix.n)
	}
	for _, t := range ix.trees {
		if err := t.AttachAttrs(st); err != nil {
			return err
		}
	}
	ix.attrs = st
	return nil
}

// Attrs returns the attached global attribute store, nil when none.
func (ix *Index) Attrs() *attr.Store { return ix.attrs }

// IndexBytes reports the summed footprint of all shard trees. Each tree
// counts the attribute store it has attached; that is one store shared by all
// of them, counted here once, beside every shard's own summaries.
func (ix *Index) IndexBytes() int64 {
	var total int64
	for _, t := range ix.trees {
		total += t.IndexBytes()
	}
	if ix.attrs != nil {
		total -= int64(len(ix.trees)-1) * ix.attrs.MemBytes()
	}
	return total
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	return fmt.Sprintf("shard{n=%d d=%d shards=%d workers=%d}", ix.n, ix.d, len(ix.trees), ix.workers)
}

// shardOpts derives shard si's view of the caller's options: the candidate
// budget is divided across shards in proportion to their sizes
// (core.ShareBudget). Filter and Pred pass through, the shard trees speak
// global ids.
func (ix *Index) shardOpts(opts core.SearchOptions, si int) core.SearchOptions {
	opts.Budget = core.ShareBudget(opts.Budget, int64(ix.trees[si].N()), int64(ix.n))
	return opts
}

// forEachShard runs fn(si) for every shard index over at most
// min(ix.workers, GOMAXPROCS) goroutines.
func (ix *Index) forEachShard(fn func(si int)) {
	exec.ForEach(len(ix.trees), min(ix.workers, runtime.GOMAXPROCS(0)), fn)
}

// Search answers one query as SearchBatch answers a batch of one row: every
// shard tree searches it under its share of the candidate budget, and the
// shard answers merge exactly.
func (ix *Index) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	out, stats := ix.SearchBatch(&vec.Matrix{Data: q, N: 1, D: ix.d}, opts)
	return out[0], stats[0]
}

// SearchBatch answers one top-k query per row of queries: every shard tree
// serves the whole batch through its SearchBatch (one shared walk when exact,
// best-first query by query under a budget), and the per-shard
// answers merge exactly per query (core.MergeResults). Shards are processed
// over at most min(cfg.Workers, GOMAXPROCS) goroutines. Every shard tree
// charges opts.Profile, so its phases sum the shards' time and can exceed the
// call's wall time.
func (ix *Index) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	opts = opts.Normalized()
	nq := queries.N
	out := make([][]core.Result, nq)
	stats := make([]core.Stats, nq)
	if nq == 0 {
		return out, stats
	}

	shardRes := make([][][]core.Result, len(ix.trees))
	shardStats := make([][]core.Stats, len(ix.trees))
	ix.forEachShard(func(si int) {
		shardRes[si], shardStats[si] = ix.trees[si].SearchBatch(queries, ix.shardOpts(opts, si))
	})

	lists := make([][]core.Result, len(ix.trees))
	for qi := 0; qi < nq; qi++ {
		for si := range ix.trees {
			stats[qi].Add(shardStats[si][qi])
			lists[si] = shardRes[si][qi]
		}
		out[qi] = core.MergeResults(lists, opts.K)
	}
	return out, stats
}
