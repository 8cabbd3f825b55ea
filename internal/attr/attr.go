// Package attr implements the attribute/predicate subsystem behind filtered
// point-to-hyperplane search: per-point payloads (string tags plus int64 and
// float64 fields), a columnar store over them, a declarative predicate AST
// (Pred) with a canonical encoding and a JSON wire form, and per-node
// summaries (tag bitmaps, field min/max) that let a metric tree skip whole
// subtrees a predicate provably cannot match.
//
// The package is a leaf: it imports only the standard library and
// internal/binio, so every layer — core options, the trees, the shard fanout,
// the serving engine, and the HTTP wire types — can depend on it without
// cycles.
package attr

import (
	"fmt"
	"sort"
)

// Point is one point's attribute payload: a set of string tags plus named
// int64 and float64 fields. The zero value is "no attributes"; a predicate
// evaluated against it sees no tags and no fields. The JSON form is the wire
// shape insert requests carry.
type Point struct {
	Tags   []string           `json:"tags,omitempty"`
	Ints   map[string]int64   `json:"ints,omitempty"`
	Floats map[string]float64 `json:"floats,omitempty"`
}

// Empty reports whether the point carries no attributes at all.
func (p *Point) Empty() bool {
	return p == nil || (len(p.Tags) == 0 && len(p.Ints) == 0 && len(p.Floats) == 0)
}

// Field kinds recorded per column. A field name is typed consistently across
// the whole store: mixing int64 and float64 under one name is a build error.
const (
	FieldInt   = byte(0)
	FieldFloat = byte(1)
)

// fieldCol is one typed field column: a presence bitmap plus a dense value
// array (absent rows hold zero and are never read through the bitmap).
// Values are kept as float64 regardless of the declared kind, so row
// evaluation and node summaries compare in exactly one numeric domain —
// the pushdown soundness argument needs row eval and summary eval to agree
// bit for bit.
type fieldCol struct {
	name    string
	kind    byte
	present []uint64  // presence bitmap, (n+63)/64 words
	vals    []float64 // dense, one per row; int64 fields widened
}

func (c *fieldCol) has(row int32) bool {
	return c.present[uint32(row)>>6]&(1<<(uint32(row)&63)) != 0
}

// Store holds the attributes of n points in columnar form: a sorted tag
// vocabulary with per-row tag-id lists in CSR layout, plus typed field
// columns sorted by name. Row i carries the attributes of the id the owning
// index reports as i in search results (the data row for static kinds, the
// handle for a dynamic index, the shard-local row for a shard tree).
// A Store is immutable after Build; concurrent readers need no locking.
type Store struct {
	n        int
	tags     []string // sorted vocabulary
	tagIndex map[string]int32
	tagStart []int32 // CSR offsets, n+1 entries
	tagIDs   []int32 // sorted within each row's range
	fields   []fieldCol
	fieldIdx map[string]int
}

// Build assembles a columnar store from one payload per point. Points with a
// zero-value payload are fine; the store still covers them (empty tag list,
// all fields absent). A field name used with both integer and float values
// is rejected.
func Build(points []Point) (*Store, error) {
	n := len(points)
	st := &Store{
		n:        n,
		tagIndex: make(map[string]int32),
		fieldIdx: make(map[string]int),
		tagStart: make([]int32, n+1),
	}

	// Pass 1: vocabulary and field schema.
	kinds := make(map[string]byte)
	for i := range points {
		for _, t := range points[i].Tags {
			if _, ok := st.tagIndex[t]; !ok {
				st.tagIndex[t] = 0 // id assigned after sorting
				st.tags = append(st.tags, t)
			}
		}
		for name := range points[i].Ints {
			if k, ok := kinds[name]; ok && k != FieldInt {
				return nil, fmt.Errorf("attr: field %q used as both int and float", name)
			}
			kinds[name] = FieldInt
		}
		for name := range points[i].Floats {
			if k, ok := kinds[name]; ok && k != FieldFloat {
				return nil, fmt.Errorf("attr: field %q used as both int and float", name)
			}
			kinds[name] = FieldFloat
		}
	}
	sort.Strings(st.tags)
	for id, t := range st.tags {
		st.tagIndex[t] = int32(id)
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	words := (n + 63) / 64
	for _, name := range names {
		st.fieldIdx[name] = len(st.fields)
		st.fields = append(st.fields, fieldCol{
			name:    name,
			kind:    kinds[name],
			present: make([]uint64, words),
			vals:    make([]float64, n),
		})
	}

	// Pass 2: fill the CSR tag lists and the field columns.
	var row []int32
	for i := range points {
		row = row[:0]
		for _, t := range points[i].Tags {
			row = append(row, st.tagIndex[t])
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		// Deduplicate: a tag listed twice is one membership.
		for j, id := range row {
			if j == 0 || row[j-1] != id {
				st.tagIDs = append(st.tagIDs, id)
			}
		}
		st.tagStart[i+1] = int32(len(st.tagIDs))
		for name, v := range points[i].Ints {
			c := &st.fields[st.fieldIdx[name]]
			c.present[i>>6] |= 1 << (uint(i) & 63)
			c.vals[i] = float64(v)
		}
		for name, v := range points[i].Floats {
			c := &st.fields[st.fieldIdx[name]]
			c.present[i>>6] |= 1 << (uint(i) & 63)
			c.vals[i] = v
		}
	}
	return st, nil
}

// N returns the number of rows the store covers.
func (st *Store) N() int { return st.n }

// Tags returns the sorted tag vocabulary. Callers must not modify it.
func (st *Store) Tags() []string { return st.tags }

// Fields returns the field schema as (name, kind) pairs in name order.
func (st *Store) Fields() (names []string, kinds []byte) {
	for i := range st.fields {
		names = append(names, st.fields[i].name)
		kinds = append(kinds, st.fields[i].kind)
	}
	return names, kinds
}

// MemBytes estimates the store's heap footprint.
func (st *Store) MemBytes() int64 {
	total := int64(len(st.tagStart)+len(st.tagIDs)) * 4
	for _, t := range st.tags {
		total += int64(len(t)) + 16
	}
	for i := range st.fields {
		total += int64(len(st.fields[i].present))*8 + int64(len(st.fields[i].vals))*8
	}
	return total
}

// rowHasTag reports tag membership by binary search in the row's sorted list.
func (st *Store) rowHasTag(row, tagID int32) bool {
	lo, hi := st.tagStart[row], st.tagStart[row+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch v := st.tagIDs[mid]; {
		case v == tagID:
			return true
		case v < tagID:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Point reconstructs row i's payload — the inverse of Build, used when a
// loaded container re-attaches attributes to a mutable index that keeps
// per-handle payloads rather than a columnar store.
func (st *Store) Point(i int32) Point {
	var p Point
	for _, id := range st.tagIDs[st.tagStart[i]:st.tagStart[i+1]] {
		p.Tags = append(p.Tags, st.tags[id])
	}
	for ci := range st.fields {
		c := &st.fields[ci]
		if !c.has(i) {
			continue
		}
		if c.kind == FieldInt {
			if p.Ints == nil {
				p.Ints = make(map[string]int64)
			}
			p.Ints[c.name] = int64(c.vals[i])
		} else {
			if p.Floats == nil {
				p.Floats = make(map[string]float64)
			}
			p.Floats[c.name] = c.vals[i]
		}
	}
	return p
}

// Points reconstructs every row's payload in row order.
func (st *Store) Points() []Point {
	out := make([]Point, st.n)
	for i := range out {
		out[i] = st.Point(int32(i))
	}
	return out
}
