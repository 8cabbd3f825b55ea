// Package dynamic makes the static BC-Tree mutable: inserts accumulate in a
// buffer that queries scan exhaustively, deletes become tombstones filtered
// out of tree results, and the tree is rebuilt from the live set once the
// buffer and the tombstones together exceed a configurable fraction of the
// indexed points. Point handles are stable across rebuilds.
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
	// RebuildFraction triggers a rebuild when (buffer size + tombstones)
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

	rows  *vec.Matrix // all vectors ever inserted; row index = stable handle
	alive []bool
	live  int // number of alive handles

	tree    *balltree.Tree // over a snapshot of handles; nil when empty
	treeIDs []int32        // tree-local id -> handle
	treeDel int            // tombstones inside the tree snapshot
	buffer  []int32        // handles inserted since the last rebuild

	// attrs holds one attribute payload per handle, aligned with rows; nil
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
	return &Index{cfg: cfg.normalized(), dim: dim, rows: vec.NewMatrix(0, dim)}
}

// NewFromMatrix bulk-loads the rows of data (lifted vectors); handles are
// the row indices.
func NewFromMatrix(data *vec.Matrix, cfg Config) *Index {
	ix := New(data.D, cfg)
	for i := 0; i < data.N; i++ {
		ix.Insert(data.Row(i))
	}
	ix.Rebuild()
	return ix
}

// N returns the number of live points.
func (ix *Index) N() int { return ix.live }

// Configuration returns the (normalized) construction configuration.
func (ix *Index) Configuration() Config { return ix.cfg }

// Dim returns the lifted dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// BufferLen returns the number of points pending outside the tree.
func (ix *Index) BufferLen() int { return len(ix.buffer) }

// Pending returns the delta queries pay for beyond the tree: buffered
// inserts (scanned exhaustively) plus tree tombstones (filtered during
// traversal). It is what the rebuild and compaction triggers measure.
func (ix *Index) Pending() int { return len(ix.buffer) + ix.treeDel }

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
	handle := int32(ix.rows.N)
	ix.rows.Data = append(ix.rows.Data, x...)
	ix.rows.N++
	ix.alive = append(ix.alive, true)
	ix.live++
	ix.buffer = append(ix.buffer, handle)
	return handle
}

// ensureAttrs pads the attribute column with empty payloads up to the current
// row count, so it stays handle-indexed.
func (ix *Index) ensureAttrs() {
	for len(ix.attrs) < ix.rows.N {
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
	if len(points) != ix.rows.N {
		return fmt.Errorf("dynamic: attribute column covers %d handles, index has issued %d",
			len(points), ix.rows.N)
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
	// A tombstone inside the tree degrades queries; one in the buffer is
	// removed immediately.
	inBuffer := false
	for i, h := range ix.buffer {
		if h == handle {
			ix.buffer = append(ix.buffer[:i], ix.buffer[i+1:]...)
			inBuffer = true
			break
		}
	}
	if !inBuffer {
		ix.treeDel++
	}
	ix.maybeRebuild()
	return true
}

// Vector returns the stored vector of a live handle (aliasing internal
// storage) and whether the handle is live.
func (ix *Index) Vector(handle int32) ([]float32, bool) {
	if handle < 0 || int(handle) >= len(ix.alive) || !ix.alive[handle] {
		return nil, false
	}
	return ix.rows.Row(int(handle)), true
}

// maybeRebuild rebuilds the tree when the delta (buffer + tombstones)
// outgrows the configured fraction of the live set.
func (ix *Index) maybeRebuild() {
	if ix.background {
		return
	}
	treeLive := 0
	if ix.tree != nil {
		treeLive = len(ix.treeIDs) - ix.treeDel
	}
	delta := len(ix.buffer) + ix.treeDel
	if delta == 0 {
		return
	}
	// Always fold a buffer into a first tree once it is worth building.
	if treeLive == 0 && len(ix.buffer) >= 2*balltree.DefaultLeafSize {
		ix.Rebuild()
		return
	}
	if treeLive > 0 && float64(delta) > ix.cfg.RebuildFraction*float64(ix.live) {
		ix.Rebuild()
	}
}

// Rebuild folds the buffer and drops tombstones by rebuilding the tree over
// the live set. It is also safe to call explicitly (e.g. after a bulk load).
func (ix *Index) Rebuild() {
	if ix.live == 0 {
		ix.tree = nil
		ix.treeIDs = nil
		ix.treeDel = 0
		ix.buffer = nil
		return
	}
	ids := make([]int32, 0, ix.live)
	for h, ok := range ix.alive {
		if ok {
			ids = append(ids, int32(h))
		}
	}
	sub := ix.rows.SubsetRows(ids)
	ix.tree = balltree.Build(sub, balltree.BC, balltree.Config{LeafSize: ix.cfg.LeafSize, Seed: ix.cfg.Seed})
	ix.treeIDs = ids
	ix.treeDel = 0
	ix.buffer = nil
}

// Search answers a top-k P2HNNS query over the live set: the tree snapshot
// (with tombstones filtered) plus a pass over the buffer — exhaustive, or
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
			// Hold back the buffer's share of the budget, proportional to its
			// size and rounded up (as internal/shard splits a budget across
			// shards) but leaving the tree at least one candidate: handed the
			// whole budget the tree spends it, and the newest inserts would be
			// invisible to every budgeted search.
			total := len(ix.treeIDs) + len(ix.buffer)
			budget := min(opts.Budget, total) // also keeps the product below from overflowing
			held := min((budget*len(ix.buffer)+total-1)/total, budget-1)
			treeOpts.Budget = budget - held
		}
		treeIDs := ix.treeIDs
		treeOpts.Filter = func(local int32) bool { return accepts(treeIDs[local]) }
		res, s := ix.tree.Search(q, treeOpts)
		st.Add(s)
		for _, r := range res {
			tk.Push(treeIDs[r.ID], r.Dist)
		}
	}

	// The buffer gets what the tree left of the budget: its own share plus
	// whatever the tree did not spend.
	for _, handle := range ix.buffer {
		if !opts.BudgetLeft(st.Candidates) {
			break
		}
		if !accepts(handle) {
			continue
		}
		d := vec.AbsDot(q, ix.rows.Row(int(handle)))
		st.IPCount++
		st.Candidates++
		tk.Push(handle, d)
	}
	return tk.Results(), st
}

// IndexBytes reports the tree footprint plus the delta bookkeeping.
func (ix *Index) IndexBytes() int64 {
	var total int64
	if ix.tree != nil {
		total += ix.tree.IndexBytes() + int64(len(ix.treeIDs))*4
	}
	total += int64(len(ix.buffer))*4 + int64(len(ix.alive))
	return total
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	return fmt.Sprintf("dynamic{live=%d buffer=%d tombstones=%d dim=%d}",
		ix.live, len(ix.buffer), ix.treeDel, ix.dim)
}
