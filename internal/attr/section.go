package attr

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"p2h/internal/binio"
)

// SectionMagic opens the serialized attribute store — the block a v2 index
// container carries between its spec and the kind payload.
var SectionMagic = []byte("P2HAT001")

// Serialization bounds: a corrupt header must fail fast, not allocate.
const (
	maxSectionRows   = 1 << 22
	maxSectionTags   = 1 << 20
	maxSectionFields = 1 << 12
	maxNameLen       = 1 << 12
)

// WriteSection serializes the store with a binio writer in its canonical
// form: the magic, the row count, the sorted tag vocabulary, the CSR tag
// lists in those ids, and each field column (name, kind, presence bitmap,
// dense values) in name order. The bytes are a function of the rows alone,
// whatever order an appended store met its names in. A store over more rows,
// tags, tag memberships or fields than ReadSection accepts is refused before
// anything is written. (Its names already fit: Append validated every point.)
func WriteSection(bw *binio.Writer, st *Store) error {
	if st.n > maxSectionRows || len(st.tags) > maxSectionTags ||
		len(st.tagIDs) > maxSectionRows || len(st.fields) > maxSectionFields {
		return fmt.Errorf("attr: store of %d rows, %d tags, %d tag memberships and %d fields exceeds the section limits (%d, %d, %d, %d)",
			st.n, len(st.tags), len(st.tagIDs), len(st.fields),
			maxSectionRows, maxSectionTags, maxSectionRows, maxSectionFields)
	}
	tags := st.Tags()
	sortedID := make([]int32, len(st.tags))
	for id, t := range st.tags {
		i, _ := slices.BinarySearch(tags, t)
		sortedID[id] = int32(i)
	}
	tagIDs := make([]int32, len(st.tagIDs))
	for i, id := range st.tagIDs {
		tagIDs[i] = sortedID[id]
	}
	for r := 0; r < st.n; r++ {
		slices.Sort(tagIDs[st.tagStart[r]:st.tagStart[r+1]])
	}
	bw.Bytes(SectionMagic)
	bw.I32(int32(st.n))
	bw.I32(int32(len(tags)))
	for _, t := range tags {
		writeString(bw, t)
	}
	bw.I32s(st.tagStart)
	bw.I32s(tagIDs)
	bw.I32(int32(len(st.fields)))
	for _, c := range st.sortedFields() {
		writeString(bw, c.name)
		bw.U8(c.kind)
		for _, w := range c.present {
			bw.I64(int64(w))
		}
		bw.F64s(c.vals)
	}
	return nil
}

// ReadSection restores a store written by WriteSection, validating every
// structural invariant (sorted vocabulary, in-range CSR offsets and tag ids,
// name-sorted typed columns) so corrupt input fails with binio.ErrCorrupt
// instead of producing a store that evaluates predicates wrongly. It accepts
// the canonical form only — every tag on some row, every column present on
// some row, no presence bit at or past n, and zero in every absent row — so
// a section it accepts is the one Build writes over the rows it holds.
func ReadSection(br *binio.Reader) *Store {
	br.Expect(SectionMagic)
	n := int(br.I32())
	ntags := int(br.I32())
	if br.Err() != nil {
		return nil
	}
	if n < 0 || n > maxSectionRows || ntags < 0 || ntags > maxSectionTags {
		br.Fail("attr section header: n=%d tags=%d", n, ntags)
		return nil
	}
	st := &Store{
		n:        n,
		tagIndex: make(map[string]int32, ntags),
		fieldIdx: make(map[string]int),
	}
	for i := 0; i < ntags; i++ {
		t := readString(br)
		if br.Err() != nil {
			return nil
		}
		if i > 0 && t <= st.tags[i-1] {
			br.Fail("attr tag vocabulary not strictly sorted at %d", i)
			return nil
		}
		st.tags = append(st.tags, t)
		st.tagIndex[t] = int32(i)
	}
	st.tagStart = br.I32s(n + 1)
	if br.Err() != nil {
		return nil
	}
	if st.tagStart[0] != 0 {
		br.Fail("attr CSR does not start at 0")
		return nil
	}
	for i := 0; i < n; i++ {
		if st.tagStart[i+1] < st.tagStart[i] {
			br.Fail("attr CSR offsets decrease at row %d", i)
			return nil
		}
	}
	total := int(st.tagStart[n])
	if total > maxSectionRows {
		br.Fail("attr tag list too large: %d", total)
		return nil
	}
	st.tagIDs = br.I32s(total)
	if br.Err() != nil {
		return nil
	}
	used := make([]bool, ntags)
	for i := 0; i < n; i++ {
		row := st.tagIDs[st.tagStart[i]:st.tagStart[i+1]]
		for j, id := range row {
			if id < 0 || int(id) >= ntags {
				br.Fail("attr tag id %d out of range", id)
				return nil
			}
			if j > 0 && row[j-1] >= id {
				br.Fail("attr row %d tag list not strictly sorted", i)
				return nil
			}
			used[id] = true
		}
	}
	if i := slices.Index(used, false); i >= 0 {
		br.Fail("attr tag %q is on no row", st.tags[i])
		return nil
	}
	nf := int(br.I32())
	if br.Err() != nil {
		return nil
	}
	if nf < 0 || nf > maxSectionFields {
		br.Fail("attr field count %d", nf)
		return nil
	}
	words := (n + 63) / 64
	for fi := 0; fi < nf; fi++ {
		name := readString(br)
		kind := br.U8()
		if br.Err() != nil {
			return nil
		}
		if kind != fieldInt && kind != fieldFloat {
			br.Fail("attr field %q kind %d", name, kind)
			return nil
		}
		if fi > 0 && name <= st.fields[fi-1].name {
			br.Fail("attr field names not strictly sorted at %q", name)
			return nil
		}
		present := make([]uint64, words)
		for w := 0; w < words; w++ {
			present[w] = uint64(br.I64())
		}
		vals := br.F64s(n)
		if br.Err() != nil {
			return nil
		}
		if n&63 != 0 && present[words-1]>>(uint(n)&63) != 0 {
			br.Fail("attr field %q marks a row at or past %d present", name, n)
			return nil
		}
		some := false
		for i, v := range vals {
			has := present[i>>6]&(1<<(uint(i)&63)) != 0
			switch {
			case !has && math.Float64bits(v) != 0:
				br.Fail("attr field %q row %d is absent but holds %v", name, i, v)
				return nil
			case has && kind == fieldInt && v != math.Trunc(v):
				br.Fail("attr int field %q row %d holds non-integer %v", name, i, v)
				return nil
			}
			some = some || has
		}
		if !some {
			br.Fail("attr field %q is present on no row", name)
			return nil
		}
		st.fieldIdx[name] = len(st.fields)
		st.fields = append(st.fields, fieldCol{name: name, kind: kind, present: present, vals: vals})
	}
	if br.Err() != nil {
		return nil
	}
	return st
}

func writeString(bw *binio.Writer, s string) {
	bw.I32(int32(len(s)))
	bw.Bytes([]byte(s))
}

func readString(br *binio.Reader) string {
	ln := int(br.I32())
	if br.Err() != nil {
		return ""
	}
	if ln < 0 || ln > maxNameLen {
		br.Fail("attr string length %d", ln)
		return ""
	}
	return string(br.Raw(ln))
}

// Point wire encoding — the payload a WAL insert record (and any other
// byte-oriented channel) carries. The encoding is deterministic: tags are
// written in the caller's order but map fields sort by name, so encoding the
// same payload twice yields identical bytes (the crash-equality harness
// compares WAL cuts byte for byte).

// MaxPointEncoded bounds an encoded point — what a log record may carry —
// so a torn or corrupt length prefix cannot drive a huge allocation.
const MaxPointEncoded = 1 << 20

// AppendPoint appends p's wire encoding to dst and returns the extended
// slice.
func AppendPoint(dst []byte, p *Point) []byte {
	appendStr := func(s string) {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Tags)))
	for _, t := range p.Tags {
		appendStr(t)
	}
	ints := sortedKeys(p.Ints)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ints)))
	for _, name := range ints {
		appendStr(name)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Ints[name]))
	}
	floats := sortedKeys(p.Floats)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(floats)))
	for _, name := range floats {
		appendStr(name)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Floats[name]))
	}
	return dst
}

// DecodePoint parses a payload written by AppendPoint, consuming exactly the
// whole buffer.
func DecodePoint(b []byte) (*Point, error) {
	p := &Point{}
	u16 := func() (int, error) {
		if len(b) < 2 {
			return 0, fmt.Errorf("attr: truncated point payload")
		}
		v := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		return v, nil
	}
	str := func() (string, error) {
		ln, err := u16()
		if err != nil {
			return "", err
		}
		if len(b) < ln {
			return "", fmt.Errorf("attr: truncated point payload")
		}
		s := string(b[:ln])
		b = b[ln:]
		return s, nil
	}
	u64 := func() (uint64, error) {
		if len(b) < 8 {
			return 0, fmt.Errorf("attr: truncated point payload")
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	ntags, err := u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ntags; i++ {
		t, err := str()
		if err != nil {
			return nil, err
		}
		p.Tags = append(p.Tags, t)
	}
	nints, err := u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nints; i++ {
		name, err := str()
		if err != nil {
			return nil, err
		}
		v, err := u64()
		if err != nil {
			return nil, err
		}
		if p.Ints == nil {
			p.Ints = make(map[string]int64)
		}
		p.Ints[name] = int64(v)
	}
	nfloats, err := u16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nfloats; i++ {
		name, err := str()
		if err != nil {
			return nil, err
		}
		v, err := u64()
		if err != nil {
			return nil, err
		}
		if p.Floats == nil {
			p.Floats = make(map[string]float64)
		}
		p.Floats[name] = math.Float64frombits(v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("attr: %d trailing bytes after point payload", len(b))
	}
	return p, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
