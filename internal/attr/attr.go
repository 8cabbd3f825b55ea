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
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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

// ErrPayload is wrapped by every error Validate returns.
var ErrPayload = errors.New("attr: payload out of bounds")

// maxIntField bounds an int field's magnitude: a store holds every field as a
// float64, which represents each integer up to 2^53 exactly.
const maxIntField = 1 << 53

// Validate is the payload rule: it accepts exactly the points every reader in
// this module takes back. Such a point's wire encoding (AppendPoint) fits
// the bounds DecodePoint enforces — tag and field names up to maxNameLen
// bytes, at most 65 535 tags (a uint16 count), at most MaxPointEncoded bytes
// in all — and a store built over it fits a section ReadSection accepts: at
// most maxSectionFields fields, none of them both an int and a float, and
// every int within ±2^53, so that it reads back as it went in. Store.Append
// runs it — before a mutable index's insert changes anything, and on every
// point Build is given — so no payload is accepted that a log replay or a
// container load would later refuse.
func (p *Point) Validate() error {
	if p.Empty() {
		return nil
	}
	if len(p.Tags) > math.MaxUint16 {
		return fmt.Errorf("%w: %d tags, limit %d", ErrPayload, len(p.Tags), math.MaxUint16)
	}
	if n := len(p.Ints) + len(p.Floats); n > maxSectionFields {
		return fmt.Errorf("%w: %d fields, limit %d", ErrPayload, n, maxSectionFields)
	}
	size := 6 // the three counts
	name := func(what, s string) error {
		if len(s) > maxNameLen {
			return fmt.Errorf("%w: %s of %d bytes, limit %d", ErrPayload, what, len(s), maxNameLen)
		}
		size += 2 + len(s)
		return nil
	}
	for _, t := range p.Tags {
		if err := name("tag", t); err != nil {
			return err
		}
	}
	for f, v := range p.Ints {
		if _, both := p.Floats[f]; both {
			return fmt.Errorf("%w: field %q is both an int and a float", ErrPayload, f)
		}
		if v > maxIntField || v < -maxIntField {
			return fmt.Errorf("%w: int field %q is %d, beyond ±2^53", ErrPayload, f, v)
		}
		if err := name("field name", f); err != nil {
			return err
		}
	}
	for f := range p.Floats {
		if err := name("field name", f); err != nil {
			return err
		}
	}
	if size += 8 * (len(p.Ints) + len(p.Floats)); size > MaxPointEncoded {
		return fmt.Errorf("%w: payload encodes to %d bytes, limit %d", ErrPayload, size, MaxPointEncoded)
	}
	return nil
}

// Field kinds recorded per column. A field name is typed consistently across
// the whole store: an Append mixing int64 and float64 under one name is
// refused.
const (
	fieldInt   = byte(0)
	fieldFloat = byte(1)
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

// Store holds the attributes of n points in columnar form: a tag vocabulary
// with per-row tag-id lists in CSR layout, plus typed field columns. Row i
// carries the attributes of the id the owning index reports as i in search
// results (the data row for static kinds, the handle for a dynamic index,
// the shard-local row for a shard tree).
//
// A Store is append-only: Append adds one row and never changes an earlier
// one, and tag ids and column indices are assigned in first-seen order, so a
// predicate compiled or a summary built before an append still speaks the
// grown store's ids. WriteSection writes the canonical form (sorted
// vocabulary, name-sorted columns) whatever order the names arrived in. The
// owner appends under its own mutation exclusion; readers need no locking
// between appends.
type Store struct {
	n        int
	tags     []string // vocabulary in tag-id order: first seen (sorted as read)
	tagIndex map[string]int32
	tagStart []int32 // CSR offsets, n+1 entries
	tagIDs   []int32 // ascending within each row's range
	fields   []fieldCol
	fieldIdx map[string]int
}

// Build assembles a columnar store from one payload per point: Append over
// the points, then every array trimmed to its length. Points with a
// zero-value payload are fine; the store still covers them (empty tag list,
// all fields absent).
func Build(points []Point) (*Store, error) {
	st := &Store{tagIndex: make(map[string]int32), tagStart: []int32{0}, fieldIdx: make(map[string]int)}
	for i := range points {
		if err := st.Append(points[i]); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	st.tagStart = slices.Clone(st.tagStart)
	for i := range st.fields {
		c := &st.fields[i]
		c.present, c.vals = slices.Clone(c.present), slices.Clone(c.vals)
	}
	return st, nil
}

// Append adds p as the store's next row. A point Validate refuses, or one
// giving a field the other numeric kind than the store holds it as (no
// section could hold both), is refused with an error wrapping ErrPayload,
// before the store changes.
func (st *Store) Append(p Point) error {
	if err := p.Validate(); err != nil {
		return err
	}
	clash := func(name string, kind byte) error {
		if ci, ok := st.fieldIdx[name]; ok && st.fields[ci].kind != kind {
			return fmt.Errorf("%w: field %q is an int in one payload and a float in another", ErrPayload, name)
		}
		return nil
	}
	for name := range p.Ints {
		if err := clash(name, fieldInt); err != nil {
			return err
		}
	}
	for name := range p.Floats {
		if err := clash(name, fieldFloat); err != nil {
			return err
		}
	}

	row := int32(st.n)
	start := len(st.tagIDs)
	for _, t := range p.Tags {
		id, ok := st.tagIndex[t]
		if !ok {
			id = int32(len(st.tags))
			st.tags = append(st.tags, t)
			st.tagIndex[t] = id
		}
		st.tagIDs = append(st.tagIDs, id)
	}
	// Sorted, and a tag listed twice is one membership.
	ids := st.tagIDs[start:]
	slices.Sort(ids)
	st.tagIDs = st.tagIDs[:start+len(slices.Compact(ids))]
	st.tagStart = append(st.tagStart, int32(len(st.tagIDs)))

	st.n++
	words := (st.n + 63) / 64
	for i := range st.fields {
		c := &st.fields[i]
		c.vals = append(c.vals, 0)
		if len(c.present) < words {
			c.present = append(c.present, 0)
		}
	}
	for name, v := range p.Ints {
		st.set(name, fieldInt, row, float64(v))
	}
	for name, v := range p.Floats {
		st.set(name, fieldFloat, row, v)
	}
	return nil
}

// set records row's value of the named field, adding the column — absent on
// every earlier row — the first time the name appears.
func (st *Store) set(name string, kind byte, row int32, v float64) {
	ci, ok := st.fieldIdx[name]
	if !ok {
		ci = len(st.fields)
		st.fieldIdx[name] = ci
		st.fields = append(st.fields, fieldCol{
			name:    name,
			kind:    kind,
			present: make([]uint64, (st.n+63)/64),
			vals:    make([]float64, st.n),
		})
	}
	c := &st.fields[ci]
	c.present[row>>6] |= 1 << (uint32(row) & 63)
	c.vals[row] = v
}

// N returns the number of rows the store covers.
func (st *Store) N() int { return st.n }

// Tags returns the tag vocabulary, sorted.
func (st *Store) Tags() []string { return slices.Sorted(slices.Values(st.tags)) }

// Fields returns the field schema as "name:int" / "name:float" entries in
// name order.
func (st *Store) Fields() (schema []string) {
	for _, c := range st.sortedFields() {
		schema = append(schema, c.name+[...]string{fieldInt: ":int", fieldFloat: ":float"}[c.kind])
	}
	return schema
}

// sortedFields returns the field columns in name order, the order a section
// holds them in.
func (st *Store) sortedFields() []*fieldCol {
	cols := make([]*fieldCol, len(st.fields))
	for i := range st.fields {
		cols[i] = &st.fields[i]
	}
	slices.SortFunc(cols, func(a, b *fieldCol) int { return strings.Compare(a.name, b.name) })
	return cols
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
