package dynamic

// Background delta compaction. In the default (synchronous) mode the index
// folds its delta into a fresh tree inline, inside the Insert/Delete call
// that pushed the delta over RebuildFraction — simple, but the unlucky
// mutation stalls for the whole build while the serving engine holds every
// search out behind the mutation lock. Background mode splits the rebuild
// into three phases so only the two short ones run under the lock:
//
//	capture  (under the mutation lock)  BeginCompaction snapshots the live
//	         handle set and an alias of the row storage. Rows are append-only
//	         — a handle's vector never changes and storage growth either
//	         extends past the captured length or reallocates, leaving the
//	         captured array untouched — so the alias stays valid unlocked.
//	build    (no lock)                  Compaction.Build copies the captured
//	         live rows and builds the replacement tree; searches and
//	         mutations proceed concurrently against the old tree.
//	install  (under the mutation lock)  Install swaps the tree in and
//	         reconciles the mutations that raced the build: captured handles
//	         deleted meanwhile become tombstones in the new tree, handles
//	         inserted meanwhile form the new buffer.
//
// The serving engine owns the schedule: it polls CompactionNeeded after
// mutations and runs one capture/build/install cycle at a time.

import (
	"p2h/internal/balltree"
	"p2h/internal/vec"
)

// Handles returns the number of handles ever issued (the row count,
// including deleted handles). The write-ahead log records it as the replay
// boundary between snapshot contents and logged mutations.
func (ix *Index) Handles() int { return ix.rows.N }

// SetCompactFraction overrides the compaction threshold after construction.
// The payload serialization predates the field, so the container layer
// restores it from the index's Spec (stored in the container header) through
// this setter.
func (ix *Index) SetCompactFraction(f float64) { ix.cfg.CompactFraction = f }

// SetBackgroundCompaction switches delta folding between synchronous (the
// default: Insert/Delete rebuild inline once the delta outgrows
// RebuildFraction) and background (mutations never rebuild; the caller
// drives BeginCompaction/Build/Install off-thread when CompactionNeeded).
func (ix *Index) SetBackgroundCompaction(on bool) { ix.background = on }

// CompactionNeeded reports whether the delta has outgrown the compaction
// threshold: CompactFraction of the live set, or RebuildFraction when
// CompactFraction is unset. Meaningful in background mode, where mutations
// no longer fold the delta themselves.
func (ix *Index) CompactionNeeded() bool {
	frac := ix.cfg.CompactFraction
	if frac <= 0 {
		frac = ix.cfg.RebuildFraction
	}
	treeLive := 0
	if ix.tree != nil {
		treeLive = len(ix.treeIDs) - ix.treeDel
	}
	delta := len(ix.buffer) + ix.treeDel
	if delta == 0 {
		return false
	}
	if treeLive == 0 {
		return len(ix.buffer) >= 2*balltree.DefaultLeafSize
	}
	return float64(delta) > frac*float64(ix.live)
}

// Compaction is one captured rebuild: the live handle set and row storage
// as of BeginCompaction, the built tree after Build.
type Compaction struct {
	ids     []int32     // live handles at capture, ascending
	rows    *vec.Matrix // alias of the captured row-storage prefix
	handles int         // ix.Handles() at capture
	tree    *balltree.Tree
}

// BeginCompaction captures the live set for an off-thread rebuild. It must
// run with mutations excluded (the serving engine's write lock, or single-
// threaded use). It returns nil when there is nothing to fold — no delta, or
// no live points (Install of an empty capture would be a pointless tree
// drop; callers reset trivially small indexes with Rebuild instead).
func (ix *Index) BeginCompaction() *Compaction {
	if ix.live == 0 || len(ix.buffer)+ix.treeDel == 0 {
		return nil
	}
	ids := make([]int32, 0, ix.live)
	for h, ok := range ix.alive {
		if ok {
			ids = append(ids, int32(h))
		}
	}
	return &Compaction{
		ids:     ids,
		rows:    &vec.Matrix{Data: ix.rows.Data[:ix.rows.N*ix.dim], N: ix.rows.N, D: ix.dim},
		handles: ix.rows.N,
	}
}

// Build constructs the replacement tree over the captured live set. It takes
// no locks and runs concurrently with searches and mutations; cfg is read
// from the owning index but is immutable after construction.
func (c *Compaction) Build(cfg Config) {
	sub := c.rows.SubsetRows(c.ids)
	c.tree = balltree.Build(sub, balltree.BC, balltree.Config{LeafSize: cfg.LeafSize, Seed: cfg.Seed})
}

// Install swaps the built tree in, reconciling mutations that raced the
// build. It must run with mutations excluded, on the same index that issued
// the capture, after Build has completed.
//
// Correctness of the reconciliation: the new tree covers exactly the capture
// ids. A handle below the capture boundary that is live now was live at
// capture (handles are never resurrected), so it is in the tree; captured
// handles deleted since become tombstones. Every handle at or past the
// boundary was inserted during the build and forms the new buffer.
func (ix *Index) Install(c *Compaction) {
	if c == nil || c.tree == nil {
		panic("dynamic: Install of a nil or unbuilt compaction")
	}
	dead := 0
	for _, h := range c.ids {
		if !ix.alive[h] {
			dead++
		}
	}
	buffer := ix.buffer[:0]
	for h := c.handles; h < ix.rows.N; h++ {
		if ix.alive[h] {
			buffer = append(buffer, int32(h))
		}
	}
	ix.tree = c.tree
	ix.treeIDs = c.ids
	ix.treeDel = dead
	ix.buffer = buffer
}

// Compact runs one full capture/build/install cycle inline. It is the
// single-threaded form of the background cycle, used by tests and by callers
// without a serving engine; unlike Rebuild it exercises exactly the
// reconciliation path the engine uses.
func (ix *Index) Compact() bool {
	c := ix.BeginCompaction()
	if c == nil {
		return false
	}
	c.Build(ix.cfg)
	ix.Install(c)
	return true
}
