package p2h

import (
	"fmt"

	"p2h/internal/attr"
	"p2h/internal/dynamic"
)

// PointAttrs is one point's attribute payload: free-form string tags plus
// named numeric fields (int64 or float64; a field keeps one kind across the
// whole data set). Attach payloads to a built index with AttachAttributes,
// or per insert with (*Dynamic).InsertWithAttrs; filter searches over them
// with SearchOptions.Pred.
type PointAttrs = attr.Point

// Pred is a declarative attribute predicate: tag membership, numeric range,
// and the and/or/not combinators, built with the constructors below (TagIs,
// FieldBetween, AllOf, ...) or decoded from its JSON form. Set it on
// SearchOptions.Pred to restrict a search to matching points.
//
// Unlike the opaque Filter callback, a Pred serializes (the daemon and the
// cluster router forward it), keys the server's result cache, and is pushed
// down into tree traversal: per-node attribute summaries let whole subtrees
// be skipped when the predicate provably cannot match under them, with
// results bitwise identical to filtering every row.
type Pred = attr.Pred

// TagIs matches points carrying the tag.
func TagIs(tag string) *Pred { return attr.TagIs(tag) }

// TagAny matches points carrying at least one of the tags.
func TagAny(tags ...string) *Pred { return attr.TagAny(tags...) }

// FieldBetween matches points whose field lies in [min, max].
func FieldBetween(field string, min, max float64) *Pred {
	return attr.FieldBetween(field, min, max)
}

// FieldAtLeast matches points whose field is >= min.
func FieldAtLeast(field string, min float64) *Pred { return attr.FieldAtLeast(field, min) }

// FieldAtMost matches points whose field is <= max.
func FieldAtMost(field string, max float64) *Pred { return attr.FieldAtMost(field, max) }

// AllOf matches points satisfying every predicate (logical AND).
func AllOf(ps ...*Pred) *Pred { return attr.AllOf(ps...) }

// OneOf matches points satisfying at least one predicate (logical OR).
func OneOf(ps ...*Pred) *Pred { return attr.OneOf(ps...) }

// NotOf matches points the predicate rejects (logical NOT).
func NotOf(p *Pred) *Pred { return attr.NotOf(p) }

// AttachAttributes binds one attribute payload per indexed point to a built
// index: points[i] belongs to data row i (for a Dynamic index, handle i; the
// index must have issued exactly len(points) handles). Passing nil detaches.
// The index keeps the payloads — callers must not mutate them afterwards.
//
// After attaching, searches with SearchOptions.Pred filter over the payloads.
// The tree kinds (balltree, bctree, sharded) additionally build per-node
// summaries and skip subtrees the predicate cannot match; the remaining kinds
// evaluate the predicate per row. Either way results are bitwise identical to
// an equivalent Filter callback. Mixed field kinds (one payload holding field
// f as an int, another as a float) are rejected.
func AttachAttributes(ix Index, points []PointAttrs) error {
	if d, ok := ix.(*Dynamic); ok {
		// Validate the payloads build a consistent schema before installing.
		if points != nil {
			if _, err := attr.Build(points); err != nil {
				return fmt.Errorf("p2h: AttachAttributes: %w", err)
			}
		}
		return d.index.SetAttrs(points)
	}
	var st *attr.Store
	if points != nil {
		if len(points) != ix.N() {
			return fmt.Errorf("p2h: AttachAttributes: %d payloads for an index of %d points",
				len(points), ix.N())
		}
		var err error
		st, err = attr.Build(points)
		if err != nil {
			return fmt.Errorf("p2h: AttachAttributes: %w", err)
		}
	}
	return attachStore(ix, st)
}

// attrHolder is an inner index that keeps the attribute store itself and
// pushes predicates down its traversal: *balltree.Tree and *shard.Index.
type attrHolder interface {
	AttachAttrs(st *attr.Store) error
	Attrs() *attr.Store
}

// attachStore installs a built column store on an index (nil detaches): into
// the inner index where that has a predicate path of its own — row-form
// payloads for a dynamic one — and on the handle otherwise.
func attachStore(ix Index, st *attr.Store) error {
	w, ok := ix.(wrapped)
	if !ok {
		return fmt.Errorf("p2h: %T is not an index of this package and takes no attributes", ix)
	}
	switch in := w.base().in.(type) {
	case *dynamic.Index:
		if st == nil {
			return in.SetAttrs(nil)
		}
		return in.SetAttrs(st.Points())
	case attrHolder:
		// A tree itself only asks that every id it holds is covered (a shard
		// tree attaches a store wider than itself); standalone, row for row.
		if st != nil && st.N() != ix.N() {
			return fmt.Errorf("p2h: attribute store covers %d rows, index holds %d", st.N(), ix.N())
		}
		return in.AttachAttrs(st)
	default:
		w.base().attrs = st
		return nil
	}
}

// storeOf extracts an index's attribute payloads as a column store for
// persistence; nil when the index carries none. For a Dynamic index the
// store covers every handle ever issued (dead handles hold what they held),
// so a restore round-trips the column exactly.
func storeOf(h *handle) (*attr.Store, error) {
	switch in := h.in.(type) {
	case *dynamic.Index:
		if !in.HasAttrs() {
			return nil, nil
		}
		pts := make([]attr.Point, in.Handles())
		for i := range pts {
			pts[i] = in.AttrAt(int32(i))
		}
		return attr.Build(pts)
	case attrHolder:
		return in.Attrs(), nil
	default:
		return h.attrs, nil
	}
}

// applyPred folds opts.Pred into opts.Filter for the kinds without a native
// predicate path, evaluating it through the store attached to the handle
// (predicate first, then the caller's filter — the same acceptance order the
// tree kinds use, so results stay bitwise identical across kinds). The second
// result reports that the predicate can match nothing at all (no store
// attached and the predicate rejects the empty payload): the caller returns
// empty results without searching.
func (t *handle) applyPred(opts SearchOptions) (SearchOptions, bool) {
	p := opts.Pred
	if p == nil || t.kind.nativePred {
		return opts, false
	}
	opts.Pred = nil
	if t.attrs == nil {
		return opts, !p.MatchesEmpty()
	}
	prog := t.attrs.Compile(p)
	user := opts.Filter
	opts.Filter = func(id int32) bool {
		if !prog.Match(id) {
			return false
		}
		return user == nil || user(id)
	}
	return opts, false
}
