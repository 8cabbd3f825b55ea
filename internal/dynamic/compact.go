package dynamic

// Background delta compaction. In the default (synchronous) mode the index
// folds its delta into a fresh tree inline, inside the Insert/Delete call
// that pushed the delta over RebuildFraction — simple, but the unlucky
// mutation stalls for the whole build while the serving engine holds every
// search out behind the mutation lock. Background mode splits the rebuild
// into three phases so only the two short ones run under the lock:
//
//	capture  (under the mutation lock)  BeginCompaction snapshots the live
//	         handle set and aliases the two places its vectors are: the
//	         snapshot tree, which nothing ever writes, and the delta rows.
//	         The delta is append-only — a row never changes (a Delete flips
//	         the liveness flag, not the row) and growth either extends past
//	         the captured length or reallocates, leaving the captured array
//	         untouched — so both aliases stay valid unlocked.
//	build    (no lock)                  Compaction.Build gathers the captured
//	         live rows into one matrix and builds the replacement tree;
//	         searches and mutations proceed concurrently against the old one.
//	install  (under the mutation lock)  Install swaps the tree in and
//	         reconciles the mutations that raced the build: captured handles
//	         deleted meanwhile become tombstones in the new tree, rows
//	         appended meanwhile are carried over as the new delta. The old
//	         tree and the folded delta rows — every deleted vector among
//	         them — become garbage here.
//
// The serving engine owns the schedule: it polls CompactionNeeded after
// mutations and runs one capture/build/install cycle at a time. Rebuild is
// the same three phases run back to back.

import (
	"p2h/internal/balltree"
	"p2h/internal/vec"
)

// Handles returns the number of handles ever issued, deleted ones included.
// The write-ahead log records it as the replay boundary between snapshot
// contents and logged mutations.
func (ix *Index) Handles() int { return len(ix.alive) }

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
	return ix.outgrown(frac)
}

// Compaction is one captured rebuild: the live handle set as of
// BeginCompaction and where its vectors are, the built tree after Build.
type Compaction struct {
	ids      []int32        // live handles at capture, ascending
	fromTree int            // ids[:fromTree] are in the tree, the rest in the delta
	tree     *balltree.Tree // the snapshot at capture, nil when there was none
	treeIDs  []int32        // its tree-local id -> handle map
	base     int            // handle of delta row 0
	delta    *vec.Matrix    // alias of the delta rows at capture
	built    *balltree.Tree
}

// BeginCompaction captures the live set for an off-thread rebuild. It must
// run with mutations excluded (the serving engine's write lock, or single-
// threaded use). It returns nil when there is nothing to fold.
func (ix *Index) BeginCompaction() *Compaction {
	if ix.Pending() == 0 {
		return nil
	}
	return ix.capture()
}

// capture is the one place a rebuild learns what to build over.
func (ix *Index) capture() *Compaction {
	ids := make([]int32, 0, ix.live)
	for _, h := range ix.treeIDs {
		if ix.alive[h] {
			ids = append(ids, h)
		}
	}
	fromTree := len(ids)
	for h := ix.base; h < len(ix.alive); h++ {
		if ix.alive[h] {
			ids = append(ids, int32(h))
		}
	}
	return &Compaction{
		ids:      ids,
		fromTree: fromTree,
		tree:     ix.tree,
		treeIDs:  ix.treeIDs,
		base:     ix.base,
		delta:    &vec.Matrix{Data: ix.delta.Data[:ix.delta.N*ix.dim], N: ix.delta.N, D: ix.dim},
	}
}

// gather returns the captured live vectors as one matrix, row j holding
// handle ids[j] — ascending handle order whatever order the old tree stored
// them in, so the tree built over it is a function of the live set and the
// seed alone.
func (c *Compaction) gather() *vec.Matrix {
	if c.fromTree == 0 && len(c.ids) == c.delta.N {
		return c.delta // every delta row and nothing else: already that matrix
	}
	out := vec.NewMatrix(len(c.ids), c.delta.D)
	if c.fromTree > 0 {
		// row[local] is where tree-local id local goes, -1 for a tombstone.
		// treeIDs and ids both ascend, so one merge pass fills it; the copy
		// then walks the tree's storage in its own order.
		row := make([]int32, len(c.treeIDs))
		j := 0
		for local, h := range c.treeIDs {
			row[local] = -1
			if j < c.fromTree && c.ids[j] == h {
				row[local] = int32(j)
				j++
			}
		}
		points, ids := c.tree.Rows()
		for p, local := range ids {
			if r := row[local]; r >= 0 {
				copy(out.Row(int(r)), points.Row(p))
			}
		}
	}
	for j := c.fromTree; j < len(c.ids); j++ {
		copy(out.Row(j), c.delta.Row(int(c.ids[j])-c.base))
	}
	return out
}

// Build constructs the replacement tree over the captured live set. It takes
// no locks and runs concurrently with searches and mutations; cfg is read
// from the owning index but is immutable after construction. A capture with
// no live point builds nothing: installing it drops the tree.
func (c *Compaction) Build(cfg Config) {
	if len(c.ids) > 0 {
		c.built = balltree.Build(c.gather(), balltree.BC, balltree.Config{LeafSize: cfg.LeafSize, Seed: cfg.Seed})
	}
}

// Install swaps the built tree in, reconciling mutations that raced the
// build. It must run with mutations excluded, on the same index that issued
// the capture, after Build has completed.
//
// Correctness of the reconciliation: the new tree covers exactly the capture
// ids. A handle below the capture boundary that is live now was live at
// capture (handles are never resurrected), so it is in the tree; captured
// handles deleted since become tombstones. Every handle at or past the
// boundary was inserted during the build; those rows, dead or alive, are
// copied out as the new delta so that the folded ones can be released.
func (ix *Index) Install(c *Compaction) {
	if c == nil || (c.built == nil) != (len(c.ids) == 0) {
		panic("dynamic: Install of a nil or unbuilt compaction")
	}
	if c.base != ix.base {
		panic("dynamic: Install of a compaction captured before the last rebuild")
	}
	dead := 0
	for _, h := range c.ids {
		if !ix.alive[h] {
			dead++
		}
	}
	raced := vec.NewMatrix(ix.delta.N-c.delta.N, ix.dim)
	copy(raced.Data, ix.delta.Data[c.delta.N*ix.dim:ix.delta.N*ix.dim])
	ix.tree = c.built
	ix.treeIDs = c.ids
	ix.treeDel = dead
	ix.base += c.delta.N
	ix.delta = raced
}

// Compact runs one full capture/build/install cycle inline and reports
// whether there was anything to fold: Rebuild, except that an index with no
// delta is left alone.
func (ix *Index) Compact() bool {
	c := ix.BeginCompaction()
	if c == nil {
		return false
	}
	c.Build(ix.cfg)
	ix.Install(c)
	return true
}
