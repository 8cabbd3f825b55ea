package attr

import (
	"bytes"
	"encoding/json"
	"math/rand"
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

// TestCompiledMatchesPoint pins the core equivalence: the compiled
// store-row evaluation and the direct Point evaluation agree on every row
// for every predicate shape.
func TestCompiledMatchesPoint(t *testing.T) {
	pts := testPoints(500, 1)
	st, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPreds() {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Canon(), err)
		}
		prog := st.Compile(p)
		for i := range pts {
			got := prog.Match(int32(i))
			want := p.Matches(pts[i])
			if got != want {
				t.Fatalf("%s row %d: compiled=%v direct=%v (%+v)", p.Canon(), i, got, want, pts[i])
			}
		}
	}
}

// TestSummariesSound checks the tri-state node evaluation against brute
// force on a synthetic arena: TriNo must imply zero matching rows and TriYes
// all rows matching.
func TestSummariesSound(t *testing.T) {
	pts := testPoints(512, 2)
	st, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic balanced arena over a shuffled id permutation, preorder
	// with children at larger indices, leaves of ~16.
	ids := make([]int32, len(pts))
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

	sm := BuildSummaries(st, ids, nodes)
	for _, p := range testPreds() {
		prog := st.Compile(p)
		for ni := range nodes {
			verdict := sm.Node(int32(ni), prog)
			matches := 0
			for pos := nodes[ni].Start; pos < nodes[ni].End; pos++ {
				if prog.Match(ids[pos]) {
					matches++
				}
			}
			total := int(nodes[ni].End - nodes[ni].Start)
			switch verdict {
			case TriNo:
				if matches != 0 {
					t.Fatalf("%s node %d: TriNo but %d/%d rows match", p.Canon(), ni, matches, total)
				}
			case TriYes:
				if matches != total {
					t.Fatalf("%s node %d: TriYes but %d/%d rows match", p.Canon(), ni, matches, total)
				}
			}
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
	WriteSection(bw, st)
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
	WriteSection(bw2, got)
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
	WriteSection(bw, st)
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

func TestBuildRejectsMixedKinds(t *testing.T) {
	_, err := Build([]Point{
		{Ints: map[string]int64{"x": 1}},
		{Floats: map[string]float64{"x": 2}},
	})
	if err == nil {
		t.Fatal("mixed-kind field accepted")
	}
}

func TestStorePointsInverse(t *testing.T) {
	pts := testPoints(150, 8)
	st, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	back := st.Points()
	st2, err := Build(back)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPreds() {
		a, b := st.Compile(p), st2.Compile(p)
		for i := 0; i < st.N(); i++ {
			if a.Match(int32(i)) != b.Match(int32(i)) {
				t.Fatalf("%s: Points() inverse disagrees at %d", p.Canon(), i)
			}
		}
	}
	// Empty rows survive the inverse as empty.
	for i := range pts {
		if pts[i].Empty() != back[i].Empty() {
			t.Fatalf("row %d emptiness changed", i)
		}
	}
}
