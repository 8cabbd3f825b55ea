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
package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/core"
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
	// Workers bounds the goroutines used per query. Zero selects
	// min(Shards, GOMAXPROCS); 1 makes queries sequential.
	Workers int
	// Quantize enables the 8-bit quantized leaf mirror on every shard tree;
	// see balltree.Config.Quantize.
	Quantize bool
}

func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = c.Shards
		if p := runtime.GOMAXPROCS(0); c.Workers > p {
			c.Workers = p
		}
	}
	return c
}

// Index is a sharded BC-Tree.
type Index struct {
	trees   []*balltree.Tree
	ids     [][]int32 // shard-local row -> global data id
	n, d    int
	workers int

	// attrs is the global attribute store (row = global data id); each shard
	// tree holds the Subset over its own rows, so predicate pushdown runs
	// per shard and opts.Pred passes through shardOpts untranslated.
	attrs *attr.Store
}

// Plan returns the row partition Build would use for this data and config:
// one slice of row indices per shard, in shard order. It is deterministic in
// cfg.Seed and exactly the partition a Build with the same inputs produces,
// so out-of-process deployments (one tree per daemon) can mirror the
// in-process sharding — and its exact merge semantics — bit for bit.
func Plan(data *vec.Matrix, cfg Config) [][]int32 {
	if data == nil || data.N == 0 {
		panic("shard: empty data")
	}
	cfg = cfg.normalized()
	if cfg.Shards > data.N {
		cfg.Shards = data.N
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	all := make([]int32, data.N)
	for i := range all {
		all[i] = int32(i)
	}
	return splitParts(data, all, cfg.Shards, rng)
}

// Build partitions the lifted data into cfg.Shards compact regions and
// builds one BC-Tree per region.
func Build(data *vec.Matrix, cfg Config) *Index {
	parts := Plan(data, cfg)
	cfg = cfg.normalized()

	ix := &Index{n: data.N, d: data.D, workers: cfg.Workers}
	for si, part := range parts {
		sub := data.SubsetRows(part)
		ids := make([]int32, len(part))
		copy(ids, part)
		ix.ids = append(ix.ids, ids)
		ix.trees = append(ix.trees, balltree.Build(sub, balltree.BC, balltree.Config{
			LeafSize: cfg.LeafSize,
			Seed:     cfg.Seed + int64(si) + 1,
			Quantize: cfg.Quantize,
		}))
	}
	return ix
}

// splitParts recursively halves the largest remaining part with the
// seed-grow rule until `want` parts exist.
func splitParts(data *vec.Matrix, ids []int32, want int, rng *rand.Rand) [][]int32 {
	parts := [][]int32{ids}
	dist := make([]float64, 2*len(ids)) // SeedGrow's scratch; no part is larger
	for len(parts) < want {
		// Take the largest part. Linear scan: part counts are tiny.
		largest := 0
		for i := 1; i < len(parts); i++ {
			if len(parts[i]) > len(parts[largest]) {
				largest = i
			}
		}
		p := parts[largest]
		if len(p) < 2 {
			break // cannot split further
		}
		nl := partition.SeedGrow(data, p, rng, dist)
		parts[largest] = p[:nl]
		parts = append(parts, p[nl:])
	}
	return parts
}

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.n }

// Dim returns the lifted dimensionality.
func (ix *Index) Dim() int { return ix.d }

// Shards returns the number of shards.
func (ix *Index) Shards() int { return len(ix.trees) }

// Workers returns the per-query goroutine bound the index was built with.
func (ix *Index) Workers() int { return ix.workers }

// LeafSize returns the shard trees' maximum leaf size N0.
func (ix *Index) LeafSize() int { return ix.trees[0].LeafSize() }

// Quantized reports whether the shard trees carry the 8-bit leaf mirror.
func (ix *Index) Quantized() bool { return ix.trees[0].Quantized() }

// AttachAttrs binds a per-point attribute store (row i = global data id i):
// every shard tree gets the Subset over its own rows, in shard-local row
// order, so each tree's pushdown summaries speak its local id space and a
// global predicate needs no per-shard translation. Passing nil detaches.
func (ix *Index) AttachAttrs(st *attr.Store) error {
	if st == nil {
		for _, t := range ix.trees {
			t.AttachAttrs(nil)
		}
		ix.attrs = nil
		return nil
	}
	if st.N() != ix.n {
		return fmt.Errorf("shard: attribute store covers %d rows, index holds %d", st.N(), ix.n)
	}
	for si, t := range ix.trees {
		if err := t.AttachAttrs(st.Subset(ix.ids[si])); err != nil {
			return err
		}
	}
	ix.attrs = st
	return nil
}

// Attrs returns the attached global attribute store, nil when none.
func (ix *Index) Attrs() *attr.Store { return ix.attrs }

// IndexBytes reports the summed footprint of all shard trees plus the
// id maps (and, when attributes are attached, the global store the per-shard
// subsets were carved from).
func (ix *Index) IndexBytes() int64 {
	var total int64
	for si, t := range ix.trees {
		total += t.IndexBytes() + int64(len(ix.ids[si]))*4
	}
	if ix.attrs != nil {
		total += ix.attrs.MemBytes()
	}
	return total
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	return fmt.Sprintf("shard{n=%d d=%d shards=%d workers=%d}", ix.n, ix.d, len(ix.trees), ix.workers)
}

// shardOpts derives shard si's view of the caller's options: the candidate
// budget is divided across shards in proportion to their sizes, and a caller
// filter (which speaks global ids) is wrapped to translate the shard tree's
// local ids.
func (ix *Index) shardOpts(opts core.SearchOptions, si int) core.SearchOptions {
	out := opts
	if opts.Budget > 0 {
		share := (opts.Budget*len(ix.ids[si]) + ix.n - 1) / ix.n
		if share < 1 {
			share = 1
		}
		out.Budget = share
	}
	if opts.Filter != nil {
		userFilter := opts.Filter
		localIDs := ix.ids[si]
		out.Filter = func(local int32) bool {
			return userFilter(localIDs[local])
		}
	}
	return out
}

// forEachShard runs fn(si) for every shard index over at most ix.workers
// goroutines. Exactly min(workers, shards) goroutines are created — never
// one per shard — so a search over many shards cannot flood the scheduler
// regardless of the shard count; the pool pulls shard indices from a shared
// counter.
func (ix *Index) forEachShard(fn func(si int)) {
	nw := ix.workers
	if nw > len(ix.trees) {
		nw = len(ix.trees)
	}
	if nw <= 1 {
		for si := range ix.trees {
			fn(si)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= len(ix.trees) {
					return
				}
				fn(si)
			}
		}()
	}
	wg.Wait()
}

// Search fans the query out across the shards (over at most cfg.Workers
// goroutines), asks each shard tree for its local top-k, and merges exactly.
// The candidate budget is divided across shards in proportion to their
// sizes. Per-phase profiling is not supported concurrently; the Profile
// option is ignored.
func (ix *Index) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	opts.Profile = nil

	type shardOut struct {
		res []core.Result
		st  core.Stats
	}
	outs := make([]shardOut, len(ix.trees))

	ix.forEachShard(func(si int) {
		res, st := ix.trees[si].Search(q, ix.shardOpts(opts, si))
		// Map shard-local ids back to global ids.
		for i := range res {
			res[i].ID = ix.ids[si][res[i].ID]
		}
		outs[si] = shardOut{res: res, st: st}
	})

	var st core.Stats
	var merged []core.Result
	for _, o := range outs {
		st.Add(o.st)
		merged = append(merged, o.res...)
	}
	core.SortResults(merged)
	if len(merged) > opts.K {
		merged = merged[:opts.K]
	}
	return merged, st
}

// SearchBatch answers one top-k query per row of queries: every shard tree
// serves the whole batch through its shared batched traversal (falling back
// to per-query search for budgeted or filtered options), and the per-shard
// answers merge exactly per query. Shards are processed over at most
// cfg.Workers goroutines. Results are bitwise identical to per-query Search
// calls. The Profile option is ignored, as in Search.
func (ix *Index) SearchBatch(queries *vec.Matrix, opts core.SearchOptions) ([][]core.Result, []core.Stats) {
	opts = opts.Normalized()
	opts.Profile = nil
	nq := queries.N
	out := make([][]core.Result, nq)
	stats := make([]core.Stats, nq)
	if nq == 0 {
		return out, stats
	}

	shardRes := make([][][]core.Result, len(ix.trees))
	shardStats := make([][]core.Stats, len(ix.trees))
	ix.forEachShard(func(si int) {
		res, sts := ix.trees[si].SearchBatch(queries, ix.shardOpts(opts, si))
		ids := ix.ids[si]
		for qi := range res {
			for i := range res[qi] {
				res[qi][i].ID = ids[res[qi][i].ID]
			}
		}
		shardRes[si], shardStats[si] = res, sts
	})

	for qi := 0; qi < nq; qi++ {
		var merged []core.Result
		for si := range ix.trees {
			stats[qi].Add(shardStats[si][qi])
			merged = append(merged, shardRes[si][qi]...)
		}
		core.SortResults(merged)
		if len(merged) > opts.K {
			merged = merged[:opts.K]
		}
		out[qi] = merged
	}
	return out, stats
}
