// Package dynamic makes the static BC-Tree mutable: inserts accumulate in a
// delta that queries scan exhaustively, deletes clear the handle's bit in a
// liveness bitmap that the tree's leaf scan and the delta scan both apply,
// and the tree is rebuilt from the live set once the delta and the
// tombstones together exceed a configurable fraction of the indexed points.
// Point handles are stable across rebuilds.
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
	"p2h/internal/linearscan"
	"p2h/internal/vec"
)

// Config parameterizes the dynamic index.
type Config struct {
	// LeafSize is the underlying BC-Tree's N0; zero selects the default.
	LeafSize int
	// Seed drives tree construction.
	Seed int64
	// CompactFraction is the fold threshold: the delta is folded into a
	// fresh tree once (delta rows + tombstones) exceeds this fraction of the
	// live set — inline, by the mutation that crosses it, or by the caller's
	// background compaction when SetBackgroundCompaction is on. Zero selects
	// 0.25.
	CompactFraction float64
}

func (c Config) normalized() Config {
	if c.CompactFraction <= 0 {
		c.CompactFraction = 0.25
	}
	return c
}

// Index is a mutable P2HNNS index over lifted vectors. It is not safe for
// concurrent mutation; concurrent readers are fine between mutations.
type Index struct {
	cfg Config
	dim int // lifted dimensionality

	// live holds the live handles, one bit per handle ever issued
	// (core.BitmapWords(Handles()) words). Searches hand it to the snapshot
	// tree's leaf scan as it is (balltree.Tree.SearchLive).
	live  core.Bitmap
	nlive int // number of set bits

	// Handles [0, base) were folded by the last rebuild: the ones live then
	// are in the tree, the rest are gone. Handles [base, Handles()) are the
	// delta: row h-base is handle h, dead or alive. The delta is append-only
	// between rebuilds — a Delete clears a bit and nothing else — which is
	// what lets a background compaction read an alias of it without the lock.
	tree    *balltree.Tree // over a snapshot of handles, its ids, all < base; nil when empty
	treeDel int            // tombstones inside the tree snapshot
	base    int
	delta   *vec.Matrix

	// attrs holds one attribute payload per handle, handle-indexed; nil
	// until the first attributed insert, then padded with empty payloads so
	// indexing stays direct. Predicates evaluate per handle at query time —
	// the mutable delta has no per-node summaries to push down into, which
	// keeps inserts O(1); the static kinds own the pushdown path.
	attrs []attr.Point
	// kinds is the field schema of attrs, each field name's attr.FieldInt or
	// attr.FieldFloat: no store, hence no saved container, holds one name
	// as both.
	kinds map[string]byte

	// background suppresses inline rebuilds; a serving engine folds the
	// delta off-thread instead (see compact.go).
	background bool
}

// New creates a dynamic index for lifted vectors of dimension dim
// (raw dimension + 1). Bulk-load one with NewFromMatrix instead.
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
	ix.live = make(core.Bitmap, core.BitmapWords(data.N))
	for h := range int32(data.N) {
		ix.live.Set(h)
	}
	ix.nlive = data.N
	c := ix.capture()
	c.owned = true
	c.Build(ix.cfg)
	ix.Install(c)
	return ix
}

// N returns the number of live points.
func (ix *Index) N() int { return ix.nlive }

// treeN returns the number of handles in the snapshot tree, dead ones included.
func (ix *Index) treeN() int {
	if ix.tree == nil {
		return 0
	}
	return ix.tree.N()
}

// Trees returns the snapshot tree, the one tree Save writes, or nothing
// while there is none. Like Save, it must run with mutations excluded.
func (ix *Index) Trees() []*balltree.Tree {
	if ix.tree == nil {
		return nil
	}
	return []*balltree.Tree{ix.tree}
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

// Insert adds a lifted vector with its attribute payload — the zero Point
// for none — and returns its stable handle. The index keeps the payload
// (callers must not mutate it); predicate searches evaluate it per handle. A
// payload the rule of attr.Point.Validate refuses, or one giving a field the
// other numeric kind than an earlier payload did (no container could hold
// both), is refused here, before anything changes, with an error wrapping
// attr.ErrPayload. An empty payload creates no attribute column.
func (ix *Index) Insert(x []float32, at attr.Point) (int32, error) {
	if err := at.Validate(); err != nil {
		return 0, fmt.Errorf("dynamic: %w", err)
	}
	if err := ix.addKinds(&at); err != nil {
		return 0, err
	}
	handle := ix.insertRow(x)
	if ix.attrs != nil || !at.Empty() {
		// Pad the rows before this one that carry no payload: the column
		// stays handle-indexed.
		ix.attrs = append(ix.attrs, make([]attr.Point, int(handle)-len(ix.attrs))...)
		ix.attrs = append(ix.attrs, at)
	}
	ix.maybeRebuild()
	return handle, nil
}

func (ix *Index) insertRow(x []float32) int32 {
	if len(x) != ix.dim {
		panic(fmt.Sprintf("dynamic: vector dimension %d != %d", len(x), ix.dim))
	}
	handle := int32(ix.Handles())
	ix.delta.Data = append(ix.delta.Data, x...)
	ix.delta.N++
	if len(ix.live) < core.BitmapWords(ix.Handles()) {
		ix.live = append(ix.live, 0)
	}
	ix.live.Set(handle)
	ix.nlive++
	return handle
}

// addKinds adds at's fields to the schema, or refuses — wrapping
// attr.ErrPayload, and adding nothing — a field the schema holds as the
// other kind.
func (ix *Index) addKinds(at *attr.Point) error {
	clash := func(name string, kind byte) error {
		if k, ok := ix.kinds[name]; ok && k != kind {
			return fmt.Errorf("dynamic: %w: field %q is an int in one payload and a float in another", attr.ErrPayload, name)
		}
		return nil
	}
	for name := range at.Ints {
		if err := clash(name, attr.FieldInt); err != nil {
			return err
		}
	}
	for name := range at.Floats {
		if err := clash(name, attr.FieldFloat); err != nil {
			return err
		}
	}
	if ix.kinds == nil && len(at.Ints)+len(at.Floats) > 0 {
		ix.kinds = make(map[string]byte)
	}
	for name := range at.Ints {
		ix.kinds[name] = attr.FieldInt
	}
	for name := range at.Floats {
		ix.kinds[name] = attr.FieldFloat
	}
	return nil
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
// payload. len(points) must equal Handles(), and no field may be an int in
// one payload and a float in another; pass nil to detach. Used by bulk loads
// and container restores.
func (ix *Index) SetAttrs(points []attr.Point) error {
	if points != nil && len(points) != ix.Handles() {
		return fmt.Errorf("dynamic: attribute column covers %d handles, index has issued %d",
			len(points), ix.Handles())
	}
	prev := ix.kinds
	ix.kinds = nil
	for i := range points {
		if err := ix.addKinds(&points[i]); err != nil {
			ix.kinds = prev
			return err
		}
	}
	ix.attrs = points
	return nil
}

// Delete removes a handle. It reports whether the handle was live.
func (ix *Index) Delete(handle int32) bool {
	if handle < 0 || int(handle) >= ix.Handles() || !ix.live.Has(handle) {
		return false
	}
	ix.live.Clear(handle)
	ix.nlive--
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
	return float64(pending) > frac*float64(ix.nlive)
}

// maybeRebuild folds the delta inline when it outgrows CompactFraction of
// the live set, unless a background compaction folds it instead.
func (ix *Index) maybeRebuild() {
	if !ix.background && ix.outgrown(ix.cfg.CompactFraction) {
		ix.Compact()
	}
}

// Search answers a top-k P2HNNS query over the live set: the tree snapshot
// plus a pass over the delta — exhaustive, or up to what the tree leaves of
// opts.Budget, which caps the two together. Results carry stable handles.
// Liveness is the bitmap, which the tree's leaf scan applies before its
// bounds and the delta scan (linearscan.Scanner.ScanInto, row r as handle
// base+r) before its inner products, so a search with no
// opts.Filter and no opts.Pred calls no closure. Otherwise the two run as one
// Filter on live handles: opts.Pred evaluated per handle against the stored
// attribute payloads — the payloads live here, keyed by handle, and the
// snapshot tree has no attribute store to compile it against — before the
// user's filter, matching the static kinds' acceptance order.
func (ix *Index) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	var st core.Stats
	tk := core.NewTopK(opts.K)

	if pred, user := opts.Pred, opts.Filter; pred != nil {
		opts.Pred, opts.Filter = nil, func(handle int32) bool {
			return pred.Matches(ix.AttrAt(handle)) && (user == nil || user(handle))
		}
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
		res, s := ix.tree.SearchLive(q, treeOpts, ix.live)
		st.Add(s)
		for _, r := range res {
			tk.Push(r.ID, r.Dist)
		}
	}
	// The delta gets what the tree left of the budget: its own share plus
	// whatever the tree did not spend. Its scan pushes into the collector the
	// tree filled, so its float32 screen starts at the tree's k-th distance.
	if ix.delta.N > 0 && opts.BudgetLeft(st.Candidates) {
		if opts.Budget > 0 {
			opts.Budget -= int(st.Candidates)
		}
		n := linearscan.New(ix.delta).ScanInto(q, opts, int32(ix.base), ix.live, tk)
		st.IPCount += n
		st.Candidates += n
	}
	return tk.Results(), st
}

// IndexBytes reports the tree footprint (its id map is the snapshot's handle
// list) plus the liveness bitmap, 8 bytes per 64 handles. The vectors
// themselves — the tree's storage and the delta rows — are data, not index.
func (ix *Index) IndexBytes() int64 {
	total := 8 * int64(len(ix.live))
	if ix.tree != nil {
		total += ix.tree.IndexBytes()
	}
	return total
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	return fmt.Sprintf("dynamic{live=%d buffer=%d tombstones=%d dim=%d}",
		ix.nlive, ix.delta.N, ix.treeDel, ix.dim)
}
