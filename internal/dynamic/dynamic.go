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

	// attrs is the attribute store, row h for handle h, dead or alive; nil
	// until the first attributed payload, which pads it with empty rows for
	// the handles before. Install attaches it to the snapshot tree.
	attrs *attr.Store

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

// Pending returns the delta queries pay for beyond the tree: delta rows
// (scanned exhaustively) plus tree tombstones (filtered during traversal).
// It is what the rebuild and compaction triggers measure, and it bounds the
// dead vectors still resident.
func (ix *Index) Pending() int { return ix.delta.N + ix.treeDel }

// Insert adds a lifted vector with its attribute payload — the zero Point
// for none — and returns its stable handle. The index keeps the payload in
// its attribute store. A payload attr.Store.Append refuses (one
// attr.Point.Validate refuses, or one giving a field the other numeric kind
// than an earlier payload did: no container could hold both) is refused
// here, before anything changes, with an error wrapping attr.ErrPayload. An
// empty payload creates no store.
func (ix *Index) Insert(x []float32, at attr.Point) (int32, error) {
	if len(x) != ix.dim {
		panic(fmt.Sprintf("dynamic: vector dimension %d != %d", len(x), ix.dim))
	}
	st := ix.attrs
	if st == nil && !at.Empty() {
		st, _ = attr.Build(make([]attr.Point, ix.Handles())) // empty rows: nothing to refuse
	}
	if st != nil {
		if err := st.Append(at); err != nil {
			return 0, fmt.Errorf("dynamic: %w", err)
		}
		ix.attrs = st
	}
	handle := int32(ix.Handles())
	ix.delta.Data = append(ix.delta.Data, x...)
	ix.delta.N++
	if len(ix.live) < core.BitmapWords(ix.Handles()) {
		ix.live = append(ix.live, 0)
	}
	ix.live.Set(handle)
	ix.nlive++
	ix.maybeRebuild()
	return handle, nil
}

// AttachAttrs replaces the attribute store, row h for handle h: it must
// cover exactly the handles issued. Pass nil to detach. The snapshot tree
// attaches it too; the index appends to it from then on.
func (ix *Index) AttachAttrs(st *attr.Store) error {
	if st != nil && st.N() != ix.Handles() {
		return fmt.Errorf("dynamic: attribute store covers %d rows, index has issued %d handles",
			st.N(), ix.Handles())
	}
	if ix.tree != nil {
		if err := ix.tree.AttachAttrs(st); err != nil {
			return err
		}
	}
	ix.attrs = st
	return nil
}

// Attrs returns the attribute store, nil when no handle ever carried a
// payload.
func (ix *Index) Attrs() *attr.Store { return ix.attrs }

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
	if ix.tree == nil || ix.tree.N() == ix.treeDel {
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
// base+r) before its inner products, so a search with no opts.Filter and no
// opts.Pred calls no closure. opts.Pred pushes down on the tree, which holds
// the attribute store (or, holding none, only handles older than the store,
// whose payloads are empty), and filters the delta through the store, before
// the user's filter: the static kinds' acceptance order.
func (ix *Index) Search(q []float32, opts core.SearchOptions) ([]core.Result, core.Stats) {
	opts = opts.Normalized()
	var st core.Stats
	if pred := opts.Pred; pred != nil && ix.attrs == nil {
		// No handle ever carried a payload: each reads as the empty one.
		if !pred.MatchesEmpty() {
			return nil, st
		}
		opts.Pred = nil
	}
	tk := core.NewTopK(opts.K)

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
		if opts.Pred != nil {
			prog, user := ix.attrs.Compile(opts.Pred), opts.Filter
			opts.Pred, opts.Filter = nil, func(handle int32) bool {
				return prog.Match(handle) && (user == nil || user(handle))
			}
		}
		n := linearscan.New(ix.delta).ScanInto(q, opts, int32(ix.base), ix.live, tk)
		st.IPCount += n
		st.Candidates += n
	}
	return tk.Results(), st
}

// IndexBytes reports the tree footprint (its id map is the snapshot's handle
// list) plus the liveness bitmap, 8 bytes per 64 handles, and the attribute
// store with the snapshot's summaries, counted once: the tree counts the two
// when it holds the store. The vectors themselves — the tree's storage and
// the delta rows — are data, not index.
func (ix *Index) IndexBytes() int64 {
	total := 8 * int64(len(ix.live))
	if ix.tree != nil {
		total += ix.tree.IndexBytes()
	}
	if ix.attrs != nil && (ix.tree == nil || ix.tree.Attrs() == nil) {
		total += ix.attrs.MemBytes()
	}
	return total
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	return fmt.Sprintf("dynamic{live=%d buffer=%d tombstones=%d dim=%d}",
		ix.nlive, ix.delta.N, ix.treeDel, ix.dim)
}
