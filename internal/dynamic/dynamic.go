// Package dynamic makes the static BC-Tree mutable: inserts accumulate in a
// delta that queries scan exhaustively, deletes become tombstones filtered
// out of results, and the tree is rebuilt from the live set once the delta
// and the tombstones together exceed a configurable fraction of the indexed
// points. Point handles are stable across rebuilds.
//
// There is one copy of the data and one id space. A vector lives in the delta
// from its insert until the next rebuild and in the snapshot tree's storage
// from then on; a rebuild gathers the live vectors out of the old tree and the
// delta into one matrix, which the new tree is built inside
// (balltree.BuildOwned) and labelled with the handles of, so a deleted
// vector's bytes are released by the rebuild after its delete and the tree
// reports, and filters by, handles itself.
//
// The paper's trees are static (built once over a fixed data set); this
// wrapper is the standard "static structure + delta" construction that turns
// any bulk-built index into an updatable one while keeping queries exact.
package dynamic

import (
	"fmt"

	"p2h/internal/attr"
	"p2h/internal/balltree"
	"p2h/internal/core"
	"p2h/internal/vec"
)

// Config parameterizes the dynamic index.
type Config struct {
	// LeafSize is the underlying BC-Tree's N0; zero selects the default.
	LeafSize int
	// Seed drives tree construction.
	Seed int64
	// RebuildFraction triggers a rebuild when (delta rows + tombstones)
	// exceeds this fraction of the live set. Zero selects 0.25.
	RebuildFraction float64
	// CompactFraction is the background-compaction trigger used instead of
	// RebuildFraction when SetBackgroundCompaction is on. Zero inherits
	// RebuildFraction; it is kept distinct so a serving deployment can defer
	// inline rebuilds (large RebuildFraction) while compacting in the
	// background at a tighter threshold.
	CompactFraction float64
}

func (c Config) normalized() Config {
	if c.RebuildFraction <= 0 {
		c.RebuildFraction = 0.25
	}
	return c
}

// Index is a mutable P2HNNS index over lifted vectors. It is not safe for
// concurrent mutation; concurrent readers are fine between mutations.
type Index struct {
	cfg Config
	dim int // lifted dimensionality

	alive []bool // per handle ever issued
	live  int    // number of alive handles

	// Handles [0, base) were folded by the last rebuild: the ones live then
	// are in the tree, the rest are gone. Handles [base, Handles()) are the
	// delta: row h-base is handle h, dead or alive. The delta is append-only
	// between rebuilds — a Delete flips alive and nothing else — which is what
	// lets a background compaction read an alias of it without the lock.
	tree    *balltree.Tree // over a snapshot of handles, its ids, all < base; nil when empty
	treeDel int            // tombstones inside the tree snapshot
	base    int
	delta   *vec.Matrix

	// attrs holds one attribute payload per handle, aligned with alive; nil
	// until the first attributed insert, then padded with empty payloads so
	// indexing stays direct. Predicates evaluate per handle at query time —
	// the mutable delta has no per-node summaries to push down into, which
	// keeps inserts O(1); the static kinds own the pushdown path.
	attrs []attr.Point

	// background suppresses inline rebuilds; a serving engine folds the
	// delta off-thread instead (see compact.go).
	background bool
}

// New creates a dynamic index for lifted vectors of dimension dim
// (raw dimension + 1). Seed an initial bulk load with Insert or InsertAll.
func New(dim int, cfg Config) *Index {
	if dim <= 0 {
		panic(fmt.Sprintf("dynamic: invalid dimension %d", dim))
	}
	return &Index{cfg: cfg.normalized(), dim: dim, delta: vec.NewMatrix(0, dim)}
}

// NewFromMatrix bulk-loads the rows of data (lifted vectors); handles are
// the row indices. It takes ownership of data: the rows enter as the delta,
// which nothing else can be reading yet, so the one fold builds the tree
// inside that matrix instead of a copy of it.
func NewFromMatrix(data *vec.Matrix, cfg Config) *Index {
	ix := New(data.D, cfg)
	ix.delta = data
	ix.alive = make([]bool, data.N)
	for h := range ix.alive {
		ix.alive[h] = true
	}
	ix.live = data.N
	c := ix.capture()
	c.owned = true
	c.Build(ix.cfg)
	ix.Install(c)
	return ix
}

// N returns the number of live points.
func (ix *Index) N() int { return ix.live }

// treeN returns the number of handles in the snapshot tree, dead ones included.
func (ix *Index) treeN() int {
	if ix.tree == nil {
		return 0
	}
	return ix.tree.N()
}

// Configuration returns the (normalized) construction configuration.
func (ix *Index) Configuration() Config { return ix.cfg }

// Dim returns the lifted dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// BufferLen returns the number of rows pending outside the tree, deleted
// ones included: they stay in the delta until the next rebuild.
func (ix *Index) BufferLen() int { return ix.delta.N }

// Pending returns the delta queries pay for beyond the tree: delta rows
// (scanned exhaustively) plus tree tombstones (filtered during traversal).
// It is what the rebuild and compaction triggers measure, and it bounds the
// dead vectors still resident.
func (ix *Index) Pending() int { return ix.delta.N + ix.treeDel }

// Insert adds a lifted vector and returns its stable handle.
func (ix *Index) Insert(x []float32) int32 {
	handle := ix.insertRow(x)
	if ix.attrs != nil {
		ix.attrs = append(ix.attrs, attr.Point{})
	}
	ix.maybeRebuild()
	return handle
}

// InsertWithAttrs adds a lifted vector with an attribute payload and returns
// its stable handle. The index keeps the payload (callers must not mutate
// it); predicate searches evaluate it per handle.
func (ix *Index) InsertWithAttrs(x []float32, at attr.Point) int32 {
	ix.ensureAttrs() // pad earlier unattributed rows before this one lands
	handle := ix.insertRow(x)
	ix.attrs = append(ix.attrs, at)
	ix.maybeRebuild()
	return handle
}

func (ix *Index) insertRow(x []float32) int32 {
	if len(x) != ix.dim {
		panic(fmt.Sprintf("dynamic: vector dimension %d != %d", len(x), ix.dim))
	}
	handle := int32(len(ix.alive))
	ix.delta.Data = append(ix.delta.Data, x...)
	ix.delta.N++
	ix.alive = append(ix.alive, true)
	ix.live++
	return handle
}

// ensureAttrs pads the attribute column with empty payloads up to the current
// handle count, so it stays handle-indexed.
func (ix *Index) ensureAttrs() {
	for len(ix.attrs) < len(ix.alive) {
		ix.attrs = append(ix.attrs, attr.Point{})
	}
}

// HasAttrs reports whether any handle ever carried an attribute payload.
func (ix *Index) HasAttrs() bool { return ix.attrs != nil }

// AttrAt returns handle's attribute payload (the zero Point when none was
// recorded). The handle need not be live; dead handles report what they held.
func (ix *Index) AttrAt(handle int32) attr.Point {
	if int(handle) < len(ix.attrs) {
		return ix.attrs[handle]
	}
	return attr.Point{}
}

// SetAttrs replaces the whole attribute column: points[i] becomes handle i's
// payload. len(points) must equal Handles(); pass nil to detach. Used by
// bulk loads and container restores.
func (ix *Index) SetAttrs(points []attr.Point) error {
	if points == nil {
		ix.attrs = nil
		return nil
	}
	if len(points) != len(ix.alive) {
		return fmt.Errorf("dynamic: attribute column covers %d handles, index has issued %d",
			len(points), len(ix.alive))
	}
	ix.attrs = points
	return nil
}

// Delete removes a handle. It reports whether the handle was live.
func (ix *Index) Delete(handle int32) bool {
	if handle < 0 || int(handle) >= len(ix.alive) || !ix.alive[handle] {
		return false
	}
	ix.alive[handle] = false
	ix.live--
	// A tombstone inside the tree is filtered out of every traversal until
	// the next rebuild; a dead delta row is skipped by the scan and was
	// counted when it was inserted.
	if int(handle) < ix.base {
		ix.treeDel++
	}
	ix.maybeRebuild()
	return true
}

// outgrown reports whether the delta (delta rows + tombstones) exceeds frac
// of the live set, the trigger of inline rebuilds and background compactions
// alike. With no live point in the tree there is no live set to measure
// against: the delta folds once it is worth building a first tree from.
func (ix *Index) outgrown(frac float64) bool {
	pending := ix.Pending()
	if pending == 0 {
		return false
	}
	if ix.treeN() == ix.treeDel {
		return ix.delta.N >= 2*balltree.DefaultLeafSize
	}
	return float64(pending) > frac*float64(ix.live)
}

// maybeRebuild rebuilds the tree when the delta outgrows RebuildFraction of
// the live set.
func (ix *Index) maybeRebuild() {
	if !ix.background && ix.outgrown(ix.cfg.RebuildFraction) {
		ix.Rebuild()
	}
}

// Rebuild folds the delta and drops tombstones by rebuilding the tree over
// the live set. It is also safe to call explicitly.
func (ix *Index) Rebuild() {
	c := ix.capture()
	c.Build(ix.cfg)
	ix.Install(c)
}

// Search answers a top-k P2HNNS query over the live set: the tree snapshot
// (with tombstones filtered) plus a pass over the delta — exhaustive, or
// up to what the tree leaves of opts.Budget, which caps the two together.
// Results carry stable handles. opts.Filter composes with the liveness
// filter and receives handles. opts.Pred is evaluated per handle against the
// stored attribute payloads — before the user filter, matching the static
// kinds' acceptance order — and stripped from the options the snapshot tree
// sees (the tree's rows are transient, its summaries would be stale after
// one rebuild; the liveness closure already forces the per-row path).
func (ix *Index) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	var st core.Stats
	tk := core.NewTopK(opts.K)

	userFilter := opts.Filter
	pred := opts.Pred
	opts.Filter, opts.Pred = nil, nil
	accepts := func(handle int32) bool {
		if !ix.alive[handle] {
			return false
		}
		if pred != nil && !pred.Matches(ix.AttrAt(handle)) {
			return false
		}
		return userFilter == nil || userFilter(handle)
	}

	if ix.tree != nil {
		treeOpts := opts
		if opts.Budget > 0 {
			// Hold back the delta's share of the budget, proportional to its
			// size and rounded up (as internal/shard splits a budget across
			// shards) but leaving the tree at least one candidate: handed the
			// whole budget the tree spends it, and the newest inserts would be
			// invisible to every budgeted search.
			total := ix.tree.N() + ix.delta.N
			budget := min(opts.Budget, total) // also keeps the product below from overflowing
			held := min((budget*ix.delta.N+total-1)/total, budget-1)
			treeOpts.Budget = budget - held
		}
		treeOpts.Filter = accepts
		res, s := ix.tree.Search(q, treeOpts)
		st.Add(s)
		for _, r := range res {
			tk.Push(r.ID, r.Dist)
		}
	}

	// The delta gets what the tree left of the budget: its own share plus
	// whatever the tree did not spend.
	for i := 0; i < ix.delta.N; i++ {
		if !opts.BudgetLeft(st.Candidates) {
			break
		}
		handle := int32(ix.base + i)
		if !accepts(handle) {
			continue
		}
		d := vec.AbsDot(q, ix.delta.Row(i))
		st.IPCount++
		st.Candidates++
		tk.Push(handle, d)
	}
	return tk.Results(), st
}

// IndexBytes reports the tree footprint (its id map is the snapshot's handle
// list) plus the liveness flag per handle. The vectors themselves — the tree's
// storage and the delta rows — are data, not index.
func (ix *Index) IndexBytes() int64 {
	total := int64(len(ix.alive))
	if ix.tree != nil {
		total += ix.tree.IndexBytes()
	}
	return total
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	return fmt.Sprintf("dynamic{live=%d buffer=%d tombstones=%d dim=%d}",
		ix.live, ix.delta.N, ix.treeDel, ix.dim)
}
