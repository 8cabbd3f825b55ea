package dynamic

// Background delta compaction. In the default (synchronous) mode the index
// folds its delta into a fresh tree inline, inside the Insert/Delete call
// that pushed the delta over CompactFraction — simple, but the unlucky
// mutation stalls for the whole build while the serving engine holds every
// search out behind the mutation lock. Background mode splits the rebuild
// into three phases so only the two short ones run under the lock:
//
//	capture  (under the mutation lock)  BeginCompaction snapshots the live
//	         handle set and aliases the two places its vectors are: the
//	         snapshot tree, which nothing ever writes, and the delta rows.
//	         The delta is append-only — a row never changes (a Delete clears
//	         the handle's liveness bit, not the row) and growth either
//	         extends past the captured length or reallocates, leaving the
//	         captured array untouched — so both aliases stay valid unlocked.
//	build    (no lock)                  Compaction.Build gathers the captured
//	         live rows into one matrix and builds the replacement tree inside
//	         it; searches and mutations proceed concurrently against the old
//	         one.
//	install  (under the mutation lock)  Install swaps the tree in, attaches
//	         the attribute store to it (building its summaries) and
//	         reconciles the mutations that raced the build: captured handles
//	         deleted meanwhile become tombstones in the new tree, rows
//	         appended meanwhile are carried over as the new delta. The old
//	         tree and the folded delta rows — every deleted vector among
//	         them — become garbage here.
//
// The serving engine owns the schedule: it polls CompactionNeeded after
// mutations and runs one capture/build/install cycle at a time. Compact is
// the same three phases run back to back.

import (
	"slices"

	"p2h/internal/balltree"
	"p2h/internal/vec"
)

// Handles returns the number of handles ever issued, deleted ones included.
// The write-ahead log records it as the replay boundary between snapshot
// contents and logged mutations.
func (ix *Index) Handles() int { return ix.base + ix.delta.N }

// SetBackgroundCompaction switches delta folding between synchronous (the
// default: Insert/Delete rebuild inline once the delta outgrows
// CompactFraction) and background (mutations never rebuild; the caller
// drives BeginCompaction/Build/Install off-thread when CompactionNeeded).
func (ix *Index) SetBackgroundCompaction(on bool) { ix.background = on }

// CompactionNeeded reports whether the delta has outgrown CompactFraction of
// the live set. Meaningful in background mode, where mutations no longer fold
// the delta themselves.
func (ix *Index) CompactionNeeded() bool { return ix.outgrown(ix.cfg.CompactFraction) }

// Compaction is one captured rebuild: the live handle set as of
// BeginCompaction and where its vectors are, the built tree after Build.
type Compaction struct {
	ids      []int32        // live handles at capture, ascending
	fromTree int            // ids[:fromTree] are in the tree, the rest in the delta
	tree     *balltree.Tree // the snapshot at capture, nil when there was none
	base     int            // handle of delta row 0
	delta    *vec.Matrix    // alias of the delta rows at capture
	owned    bool           // nothing else reads delta: a bulk load's, which Build may build in
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
	// A handle below base is live only if the tree holds it: whatever the last
	// rebuild did not fold was dead by then, and handles are never resurrected.
	ids := make([]int32, 0, ix.nlive)
	fromTree := 0
	for h := range int32(ix.Handles()) {
		if ix.live.Has(h) {
			ids = append(ids, h)
			if int(h) < ix.base {
				fromTree++
			}
		}
	}
	return &Compaction{
		ids:      ids,
		fromTree: fromTree,
		tree:     ix.tree,
		base:     ix.base,
		delta:    &vec.Matrix{Data: ix.delta.Data[:ix.delta.N*ix.dim], N: ix.delta.N, D: ix.dim},
	}
}

// gather returns the captured live vectors as one matrix of their own, row j
// holding handle ids[j] — ascending handle order whatever order the old tree
// stored them in, so the tree built over it is a function of the live set and
// the seed alone. The new tree is built inside this matrix, which is why it is
// a copy even when the delta is exactly the live set: searches go on scanning
// the delta while the build reorders its rows. Only an owned delta is handed
// over as it is.
func (c *Compaction) gather() *vec.Matrix {
	if c.owned && c.fromTree == 0 && len(c.ids) == c.delta.N {
		return c.delta
	}
	out := vec.NewMatrix(len(c.ids), c.delta.D)
	if c.fromTree > 0 {
		// The copy walks the old tree's storage in its own order; a handle the
		// capture no longer lists is a tombstone. A loaded tree's points are
		// trusted, not checked, so the copy writes the lift's 1 itself: a
		// stored point off it cannot reach BuildOwned, which refuses one.
		points, handles := c.tree.Rows()
		live := c.ids[:c.fromTree]
		d := out.D - 1
		for p, h := range handles {
			if j, ok := slices.BinarySearch(live, h); ok {
				row := out.Row(j)
				copy(row[:d], points.Row(p)[:d])
				row[d] = 1
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
		c.built = balltree.BuildOwned(c.gather(), c.ids, balltree.BC, balltree.Config{LeafSize: cfg.LeafSize, Seed: cfg.Seed})
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
		if !ix.live.Has(h) {
			dead++
		}
	}
	raced := vec.NewMatrix(ix.delta.N-c.delta.N, ix.dim)
	copy(raced.Data, ix.delta.Data[c.delta.N*ix.dim:ix.delta.N*ix.dim])
	if c.built != nil && ix.attrs != nil {
		// The store covers every handle issued, the tree's among them.
		if err := c.built.AttachAttrs(ix.attrs); err != nil {
			panic("dynamic: " + err.Error())
		}
	}
	ix.tree = c.built
	ix.treeDel = dead
	ix.base += c.delta.N
	ix.delta = raced
}

// Compact folds the delta and drops tombstones by running one full
// capture/build/install cycle inline, and reports whether there was anything
// to fold. An index with nothing pending is left alone: its tree is already
// the fold of its live set in ascending handle order.
func (ix *Index) Compact() bool {
	c := ix.BeginCompaction()
	if c == nil {
		return false
	}
	c.Build(ix.cfg)
	ix.Install(c)
	return true
}
