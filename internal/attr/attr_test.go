package attr

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"p2h/internal/binio"
)

// testPoints builds a deterministic payload set exercising tags, both field
// kinds, missing fields, and empty payloads.
func testPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"red", "green", "blue", "tenant:a", "tenant:b"}
	pts := make([]Point, n)
	for i := range pts {
		if rng.Intn(10) == 0 {
			continue // one in ten points carries nothing
		}
		for _, t := range tags {
			if rng.Intn(3) == 0 {
				pts[i].Tags = append(pts[i].Tags, t)
			}
		}
		if rng.Intn(4) != 0 {
			pts[i].Ints = map[string]int64{"size": int64(rng.Intn(1000))}
		}
		if rng.Intn(4) != 0 {
			pts[i].Floats = map[string]float64{"score": rng.Float64() * 100}
		}
	}
	return pts
}

func testPreds() []*Pred {
	return []*Pred{
		TagIs("red"),
		TagIs("no-such-tag"),
		TagAny("green", "tenant:a"),
		FieldBetween("size", 100, 500),
		FieldAtLeast("score", 50),
		FieldAtMost("size", 10),
		FieldBetween("missing", 0, 1),
		AllOf(TagIs("red"), FieldAtLeast("score", 25)),
		OneOf(TagIs("tenant:a"), TagIs("tenant:b")),
		NotOf(TagIs("red")),
		NotOf(FieldBetween("size", 0, 1000)),
		AllOf(NotOf(TagIs("blue")), OneOf(FieldAtMost("score", 70), TagIs("green"))),
	}
}

// latePoints is a second batch of payloads that also bring names the first
// never holds: the tag "late" and the int field "late_n".
func latePoints(n int, seed int64) []Point {
	pts := testPoints(n, seed)
	for i := range pts {
		if i%2 == 1 {
			pts[i].Tags = append(pts[i].Tags, "late")
		}
		if i%3 == 0 {
			if pts[i].Ints == nil {
				pts[i].Ints = map[string]int64{}
			}
			pts[i].Ints["late_n"] = int64(i)
		}
	}
	return pts
}

// latePreds ask for the names latePoints bring, plainly and negated.
func latePreds() []*Pred {
	return []*Pred{
		TagIs("late"),
		NotOf(TagIs("late")),
		TagAny("late", "red"),
		FieldAtLeast("late_n", 30),
		NotOf(FieldAtMost("late_n", 60)),
		AllOf(TagIs("blue"), NotOf(TagIs("late"))),
	}
}

// grow appends pts to an empty store one row at a time and calls half, if
// set, once half of them are in.
func grow(t testing.TB, pts []Point, half func(*Store)) *Store {
	st, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if i == len(pts)/2 && half != nil {
			half(st)
		}
		if err := st.Append(pts[i]); err != nil {
			t.Fatalf("append of row %d: %v", i, err)
		}
	}
	return st
}

// section returns st's section bytes.
func section(t testing.TB, st *Store) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	if err := WriteSection(bw, st); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompiledMatchesPoint pins the core equivalence: the compiled
// store-row evaluation and the direct Point evaluation agree on every row
// for every predicate shape, on a built store and on one grown an Append at
// a time, whose second half brings names the first never held.
func TestCompiledMatchesPoint(t *testing.T) {
	pts := testPoints(500, 1)
	built, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	grownPts := append(testPoints(250, 1), latePoints(250, 4)...)
	for _, c := range []struct {
		name string
		st   *Store
		pts  []Point
	}{
		{"built", built, pts},
		{"appended", grow(t, grownPts, nil), grownPts},
	} {
		for _, p := range append(testPreds(), latePreds()...) {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", p.Canon(), err)
			}
			prog := c.st.Compile(p)
			for i := range c.pts {
				got := prog.Match(int32(i))
				want := p.Matches(c.pts[i])
				if got != want {
					t.Fatalf("%s: %s row %d: compiled=%v direct=%v (%+v)", c.name, p.Canon(), i, got, want, c.pts[i])
				}
			}
		}
	}
}

// TestSummariesSound checks the tri-state node evaluation against brute
// force on a synthetic arena: TriNo must imply zero matching rows and TriYes
// all rows matching. The second input is a store grown an Append at a time
// whose summaries were built half-way, over the rows it held then, and are
// asked about a store that has since met new tags and fields.
func TestSummariesSound(t *testing.T) {
	// A synthetic balanced arena over a shuffled permutation of n ids,
	// preorder with children at larger indices, leaves of ~16.
	arena := func(n int) ([]int32, []NodeInfo) {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		rng := rand.New(rand.NewSource(3))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		var nodes []NodeInfo
		var split func(start, end int32) int32
		split = func(start, end int32) int32 {
			ni := int32(len(nodes))
			nodes = append(nodes, NodeInfo{Start: start, End: end, Left: -1, Right: -1})
			if end-start > 16 {
				mid := (start + end) / 2
				l := split(start, mid)
				r := split(mid, end)
				nodes[ni].Left, nodes[ni].Right = l, r
			}
			return ni
		}
		split(0, int32(len(ids)))
		return ids, nodes
	}

	built, err := Build(testPoints(512, 2))
	if err != nil {
		t.Fatal(err)
	}
	ids, nodes := arena(512)
	halfIDs, halfNodes := arena(256)
	var halfSums *Summaries
	grown := grow(t, append(testPoints(256, 2), latePoints(256, 5)...), func(st *Store) {
		halfSums = BuildSummaries(st, halfIDs, halfNodes)
	})
	for _, c := range []struct {
		name  string
		st    *Store
		sm    *Summaries
		ids   []int32
		nodes []NodeInfo
	}{
		{"built", built, BuildSummaries(built, ids, nodes), ids, nodes},
		{"appended", grown, halfSums, halfIDs, halfNodes},
	} {
		for _, p := range append(testPreds(), latePreds()...) {
			prog := c.st.Compile(p)
			for ni := range c.nodes {
				verdict := c.sm.Node(int32(ni), prog)
				matches := 0
				for pos := c.nodes[ni].Start; pos < c.nodes[ni].End; pos++ {
					if prog.Match(c.ids[pos]) {
						matches++
					}
				}
				total := int(c.nodes[ni].End - c.nodes[ni].Start)
				switch verdict {
				case TriNo:
					if matches != 0 {
						t.Fatalf("%s: %s node %d: TriNo but %d/%d rows match", c.name, p.Canon(), ni, matches, total)
					}
				case TriYes:
					if matches != total {
						t.Fatalf("%s: %s node %d: TriYes but %d/%d rows match", c.name, p.Canon(), ni, matches, total)
					}
				}
			}
		}
	}
	// The late names are absent under every node the half-way summaries cover.
	for _, p := range []*Pred{TagIs("late"), FieldAtLeast("late_n", 0)} {
		if v := halfSums.Node(0, grown.Compile(p)); v != TriNo {
			t.Errorf("%s: a name first seen after the summaries reads %v at the root, want TriNo", p.Canon(), v)
		}
	}
}

func TestSectionRoundTrip(t *testing.T) {
	pts := testPoints(200, 5)
	st, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	if err := WriteSection(bw, st); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)

	br := binio.NewReader(bytes.NewReader(first))
	got := ReadSection(br)
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	bw2 := binio.NewWriter(&buf2)
	if err := WriteSection(bw2, got); err != nil {
		t.Fatal(err)
	}
	if err := bw2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("section round trip is not byte-identical")
	}
	// The restored store evaluates predicates identically.
	for _, p := range testPreds() {
		a, b := st.Compile(p), got.Compile(p)
		for i := 0; i < st.N(); i++ {
			if a.Match(int32(i)) != b.Match(int32(i)) {
				t.Fatalf("%s: restored store disagrees at row %d", p.Canon(), i)
			}
		}
	}
}

func TestSectionRejectsCorrupt(t *testing.T) {
	pts := testPoints(64, 6)
	st, _ := Build(pts)
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	if err := WriteSection(bw, st); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncations at every eighth byte and a few flipped bytes must all be
	// rejected or at worst decode to a structurally valid store — never
	// panic.
	for cut := 0; cut < len(raw); cut += 8 {
		br := binio.NewReader(bytes.NewReader(raw[:cut]))
		if ReadSection(br); br.Err() == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 8; i < len(raw); i += 13 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x5a
		br := binio.NewReader(bytes.NewReader(mut))
		ReadSection(br) // must not panic; error or clean decode both fine
	}
}

func TestPointRoundTrip(t *testing.T) {
	for _, p := range testPoints(100, 7) {
		enc := AppendPoint(nil, &p)
		enc2 := AppendPoint(nil, &p)
		if !bytes.Equal(enc, enc2) {
			t.Fatal("point encoding is not deterministic")
		}
		dec, err := DecodePoint(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range testPreds() {
			if pred.Matches(p) != pred.Matches(*dec) {
				t.Fatalf("%s: decoded point disagrees", pred.Canon())
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodePoint(enc[:cut]); err == nil && cut != len(enc) {
				// Prefixes may parse only when they happen to form a full
				// valid encoding; for this encoder a strict prefix never
				// does because DecodePoint demands exact consumption.
				t.Fatalf("prefix of length %d accepted", cut)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	min, max := 1.0, 0.0
	bad := []*Pred{
		nil,
		{},                                 // no clause
		{Tag: "a", Field: "f", Min: &min},  // two clauses
		{Field: "f"},                       // range without bounds
		{Min: &min},                        // bound without field
		{Field: "f", Min: &min, Max: &max}, // min > max
		{And: []*Pred{nil}},                // nil child
		{AnyTag: []string{""}},             // empty tag
		{Not: &Pred{}},                     // invalid child
		{And: []*Pred{{Tag: "a"}, {Or: nil, And: nil}}}, // empty child node
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad predicate %d accepted", i)
		}
	}
	for _, p := range testPreds() {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s rejected: %v", p.Canon(), err)
		}
	}
}

func TestValidateDepthCap(t *testing.T) {
	p := TagIs("x")
	for i := 0; i < maxPredDepth+2; i++ {
		p = NotOf(p)
	}
	if err := p.Validate(); err == nil {
		t.Fatal("over-deep predicate accepted")
	}
}

func TestCanonAndJSON(t *testing.T) {
	for _, p := range testPreds() {
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Pred
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: decoded form invalid: %v", p.Canon(), err)
		}
		if !p.Equal(&back) {
			t.Fatalf("canon changed across JSON: %s vs %s", p.Canon(), back.Canon())
		}
	}
	if TagIs("a").Equal(TagIs("b")) {
		t.Fatal("distinct predicates compare equal")
	}
	var nilPred *Pred
	if !nilPred.Equal(nil) || nilPred.Equal(TagIs("a")) {
		t.Fatal("nil equality broken")
	}
}

// TestBuildRejectsMixedKinds: a field given both numeric kinds is refused by
// Build, and by Append before the store changes: the refused row adds no row,
// name or byte of section.
func TestBuildRejectsMixedKinds(t *testing.T) {
	_, err := Build([]Point{
		{Ints: map[string]int64{"x": 1}},
		{Floats: map[string]float64{"x": 2}},
	})
	if err == nil {
		t.Fatal("mixed-kind field accepted")
	}
	st := grow(t, []Point{{Ints: map[string]int64{"x": 1}}}, nil)
	before := section(t, st)
	clash := Point{Tags: []string{"new"}, Floats: map[string]float64{"y": 1, "x": 2}}
	if err := st.Append(clash); !errors.Is(err, ErrPayload) {
		t.Fatalf("Append of a clashing field: %v, want ErrPayload", err)
	}
	if st.N() != 1 || !bytes.Equal(section(t, st), before) {
		t.Fatalf("the refused Append changed the store: %d rows", st.N())
	}
}

// TestValidatePayloadRule: each bound of the payload rule refuses the first
// point over it and accepts the one at it, and Build refuses what Validate
// refuses.
func TestValidatePayloadRule(t *testing.T) {
	long := func(n int) string { return strings.Repeat("n", n) }
	fields := func(n int) map[string]int64 {
		m := make(map[string]int64, n)
		for i := range n {
			m[strconv.Itoa(i)] = int64(i)
		}
		return m
	}
	manyTags := func(n, size int) []string {
		tags := make([]string, n)
		for i := range tags {
			tags[i] = long(size)
		}
		return tags
	}
	for _, c := range []struct {
		name string
		p    Point
		ok   bool
	}{
		{"empty", Point{}, true},
		{"tag at the name limit", Point{Tags: []string{long(maxNameLen)}}, true},
		{"tag over the name limit", Point{Tags: []string{long(maxNameLen + 1)}}, false},
		{"field name over the name limit", Point{Floats: map[string]float64{long(maxNameLen + 1): 1}}, false},
		{"tag count at the uint16 limit", Point{Tags: manyTags(math.MaxUint16, 0)}, true},
		{"tag count over the uint16 limit", Point{Tags: manyTags(math.MaxUint16+1, 0)}, false},
		{"fields at the section limit", Point{Ints: fields(maxSectionFields)}, true},
		{"fields over the section limit", Point{Ints: fields(maxSectionFields + 1)}, false},
		{"int and float under one name", Point{Ints: map[string]int64{"x": 1}, Floats: map[string]float64{"x": 1}}, false},
		{"encoding over 1 MiB", Point{Tags: manyTags(300, 4000)}, false},
		{"int at 2^53", Point{Ints: map[string]int64{"x": 1 << 53}}, true},
		{"int at -2^53", Point{Ints: map[string]int64{"x": -(1 << 53)}}, true},
		{"int at 2^53+1", Point{Ints: map[string]int64{"x": 1<<53 + 1}}, false},
		{"int at -2^53-1", Point{Ints: map[string]int64{"x": -(1 << 53) - 1}}, false},
		{"int at MaxInt64", Point{Ints: map[string]int64{"x": math.MaxInt64}}, false},
		{"int at MinInt64", Point{Ints: map[string]int64{"x": math.MinInt64}}, false},
	} {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrPayload) {
			t.Errorf("%s: %v does not wrap ErrPayload", c.name, err)
		}
		if _, berr := Build([]Point{c.p}); (berr == nil) != c.ok {
			t.Errorf("%s: Build = %v, want ok=%v", c.name, berr, c.ok)
		}
	}
}

// TestSectionRefusesNonCanonical: ReadSection accepts only the bytes Build
// writes, so two containers with the same payloads cannot differ in their
// attribute section. Each case takes a built store, breaks one rule of the
// canonical form in memory, and writes it.
func TestSectionRefusesNonCanonical(t *testing.T) {
	pts := []Point{
		{Tags: []string{"a"}, Ints: map[string]int64{"x": 1}},
		{},
		{Tags: []string{"a"}},
	}
	for _, c := range []struct {
		name   string
		mangle func(st *Store)
	}{
		{"absent row holds 7", func(st *Store) { st.fields[0].vals[1] = 7 }},
		{"absent row holds -0", func(st *Store) { st.fields[0].vals[1] = math.Copysign(0, -1) }},
		{"presence bit at row n", func(st *Store) { st.fields[0].present[0] |= 1 << uint(st.n) }},
		{"column present on no row", func(st *Store) { st.fields[0].present[0], st.fields[0].vals[0] = 0, 0 }},
		{"tag on no row", func(st *Store) { st.tags = append(st.tags, "b") }},
	} {
		st, err := Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		c.mangle(st)
		br := binio.NewReader(bytes.NewReader(section(t, st)))
		if ReadSection(br); !errors.Is(br.Err(), binio.ErrCorrupt) {
			t.Errorf("%s: ReadSection error %v, want binio.ErrCorrupt", c.name, br.Err())
		}
	}
}

// TestWriteSectionRefusesOversizedStore: a store past a section bound is
// refused before a byte is written, so no container carries a section
// ReadSection would refuse.
func TestWriteSectionRefusesOversizedStore(t *testing.T) {
	for _, st := range []*Store{
		{n: maxSectionRows + 1},
		{tags: make([]string, maxSectionTags+1)},
		{tagIDs: make([]int32, maxSectionRows+1)},
		{fields: make([]fieldCol, maxSectionFields+1)},
	} {
		var buf bytes.Buffer
		bw := binio.NewWriter(&buf)
		if err := WriteSection(bw, st); err == nil {
			t.Fatal("WriteSection accepted a store past the section bounds")
		}
		if err := bw.Flush(); err != nil || buf.Len() != 0 {
			t.Fatalf("refused store wrote %d bytes (flush %v)", buf.Len(), err)
		}
	}
}
