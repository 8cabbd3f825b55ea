package attr

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"

	"p2h/internal/binio"
)

// FuzzPredJSON hardens the predicate wire decoder: arbitrary JSON must
// either fail to decode, fail Validate, or yield a predicate whose Canon,
// Matches, and store compilation all run without panicking.
func FuzzPredJSON(f *testing.F) {
	seedPts := testPoints(64, 11)
	st, err := Build(seedPts)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range testPreds() {
		enc, _ := json.Marshal(p)
		f.Add(enc)
	}
	f.Add([]byte(`{"and":[{"tag":"a"},{"not":{"field":"x","min":1}}]}`))
	f.Add([]byte(`{"or":[]}`))
	f.Add([]byte(`{"field":"x","min":1e308,"max":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Pred
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			return
		}
		_ = p.Canon()
		_ = p.Matches(Point{})
		_ = p.Matches(seedPts[0])
		prog := st.Compile(&p)
		for i := 0; i < st.N(); i += 7 {
			_ = prog.Match(int32(i))
		}
	})
}

// FuzzSection hardens the attribute-section decoder: arbitrary bytes must
// never panic, and anything the decoder accepts must round-trip to identical
// bytes and evaluate predicates without crashing. Where its rows are payloads
// the rule admits, it writes the bytes Build writes over them, and a store
// restored from Build's section over them and grown by more Appends writes
// the bytes Build writes over all the rows at once.
func FuzzSection(f *testing.F) {
	for _, seed := range []int64{21, 22} {
		st, err := Build(testPoints(32, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(section(f, st))
	}
	more := latePoints(40, 23)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := binio.NewReader(bytes.NewReader(data))
		st := ReadSection(br)
		if br.Err() != nil || st == nil {
			return
		}
		if !bytes.HasPrefix(data, section(t, st)) {
			t.Fatal("accepted section does not re-encode to its own prefix")
		}
		for _, p := range testPreds() {
			prog := st.Compile(p)
			for i := 0; i < st.N(); i++ {
				_ = prog.Match(int32(i))
			}
		}

		pts := rows(st)
		built, err := Build(pts)
		if err != nil {
			return // the section holds a row the payload rule refuses
		}
		if !bytes.Equal(section(t, st), section(t, built)) {
			t.Fatal("an accepted section writes other bytes than Build over its rows")
		}
		br = binio.NewReader(bytes.NewReader(section(t, built)))
		grown := ReadSection(br)
		if err := br.Err(); err != nil {
			t.Fatal(err)
		}
		var refused error
		for i := range more {
			if refused = grown.Append(more[i]); refused != nil {
				break
			}
		}
		all, err := Build(append(pts, more...))
		if (err == nil) != (refused == nil) {
			t.Fatalf("Build over all the rows: %v; Append after the restore: %v", err, refused)
		}
		if err == nil && !bytes.Equal(section(t, grown), section(t, all)) {
			t.Fatal("a restored store grown by Append writes other bytes than Build over the same rows")
		}
	})
}

// rows reads every row of st back as a payload.
func rows(st *Store) []Point {
	out := make([]Point, st.n)
	for i := range out {
		p := &out[i]
		for _, id := range st.tagIDs[st.tagStart[i]:st.tagStart[i+1]] {
			p.Tags = append(p.Tags, st.tags[id])
		}
		for ci := range st.fields {
			c := &st.fields[ci]
			switch {
			case !c.has(int32(i)):
			case c.kind == fieldInt:
				if p.Ints == nil {
					p.Ints = map[string]int64{}
				}
				p.Ints[c.name] = int64(c.vals[i])
			default:
				if p.Floats == nil {
					p.Floats = map[string]float64{}
				}
				p.Floats[c.name] = c.vals[i]
			}
		}
	}
	return out
}

// FuzzPointPayload hardens the WAL point-payload decoder.
func FuzzPointPayload(f *testing.F) {
	for _, p := range testPoints(16, 31) {
		f.Add(AppendPoint(nil, &p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePoint(data)
		if err != nil {
			return
		}
		// Accepted payloads re-encode deterministically, though not
		// necessarily to the input bytes (tag order is caller-chosen but map
		// iteration is not; the decoder's maps re-sort on encode).
		a := AppendPoint(nil, p)
		b := AppendPoint(nil, p)
		if !bytes.Equal(a, b) {
			t.Fatal("re-encoding not deterministic")
		}
	})
}

// fuzzPoint builds a payload from fuzz input: tags tags and fields fields,
// every name nameLen bytes long (tags tagLen), drawn from salt and made
// distinct by their index where the length leaves room. Every third field is
// an int, every third a float and every third both when clash is set. The
// total name bytes stay under a few MiB, so every bound of the payload rule
// is reachable without a huge allocation.
func fuzzPoint(tagLen, tags, nameLen, fields uint32, clash bool, salt []byte) Point {
	const budget = 3 << 20
	tagLen, nameLen = tagLen%(1<<17), nameLen%(1<<17)
	tags, fields = min(tags%(1<<17), budget/(tagLen+1)), min(fields%(1<<13), budget/(nameLen+1))
	if len(salt) == 0 {
		salt = []byte("a")
	}
	name := func(n, i uint32) string {
		b := make([]byte, n)
		for j := range b {
			b[j] = salt[j%len(salt)]
		}
		var idx [4]byte
		binary.LittleEndian.PutUint32(idx[:], i)
		copy(b[max(0, len(b)-4):], idx[:])
		return string(b)
	}
	var p Point
	for i := range tags {
		p.Tags = append(p.Tags, name(tagLen, i))
	}
	for i := range fields {
		f := name(nameLen, i)
		bits := uint64(i) * 0x9e3779b97f4a7c15
		if i%3 != 1 || clash {
			if p.Ints == nil {
				p.Ints = map[string]int64{}
			}
			p.Ints[f] = int64(bits)
		}
		if i%3 == 1 || (i%3 == 2 && clash) {
			if p.Floats == nil {
				p.Floats = map[string]float64{}
			}
			p.Floats[f] = math.Float64frombits(bits)
		}
	}
	return p
}

// FuzzPointRoundTrip checks the write side against the read side: a point
// the payload rule accepts must survive its wire encoding (DecodePoint of
// AppendPoint is the same point) and a one-row store over it must survive
// WriteSection → ReadSection byte for byte; a point the rule refuses must be
// refused by Build too. The seeds are the payloads that once got through: an
// encoding over 1 MiB, a tag too long for its uint16 length prefix, and a tag
// longer than a section name.
func FuzzPointRoundTrip(f *testing.F) {
	f.Add(uint32(4000), uint32(300), uint32(0), uint32(0), false, []byte("x")) // 1.2 MB encoding
	f.Add(uint32(70000), uint32(1), uint32(0), uint32(0), false, []byte("t"))  // 70 000-byte tag
	f.Add(uint32(5000), uint32(1), uint32(0), uint32(0), false, []byte("t"))   // 5 000-byte tag
	f.Add(uint32(3), uint32(5), uint32(4), uint32(7), false, []byte("ok"))
	f.Add(uint32(3), uint32(5), uint32(4), uint32(7), true, []byte("ok"))    // int and float under one name
	f.Add(uint32(0), uint32(70000), uint32(0), uint32(0), false, []byte{})   // more tags than a uint16 counts
	f.Add(uint32(0), uint32(0), uint32(2), uint32(5000), false, []byte("f")) // more fields than a section holds
	f.Add(uint32(4096), uint32(2), uint32(4096), uint32(3), false, []byte("edge"))
	f.Fuzz(func(t *testing.T, tagLen, tags, nameLen, fields uint32, clash bool, salt []byte) {
		p := fuzzPoint(tagLen, tags, nameLen, fields, clash, salt)
		if err := p.Validate(); err != nil {
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("Validate error %v does not wrap ErrPayload", err)
			}
			if _, err := Build([]Point{p}); err == nil {
				t.Fatal("Build accepted a point Validate refuses")
			}
			return
		}
		enc := AppendPoint(nil, &p)
		if len(enc) > MaxPointEncoded {
			t.Fatalf("accepted point encodes to %d bytes, decoder cap %d", len(enc), MaxPointEncoded)
		}
		back, err := DecodePoint(enc)
		if err != nil {
			t.Fatalf("accepted point does not decode: %v", err)
		}
		if !slices.Equal(back.Tags, p.Tags) || !bytes.Equal(AppendPoint(nil, back), enc) {
			t.Fatal("decoded point differs from the one encoded")
		}
		st, err := Build([]Point{p})
		if err != nil {
			t.Fatalf("Build refused an accepted point: %v", err)
		}
		var buf bytes.Buffer
		bw := binio.NewWriter(&buf)
		if err := WriteSection(bw, st); err != nil {
			t.Fatalf("WriteSection refused a one-row store: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		br := binio.NewReader(bytes.NewReader(buf.Bytes()))
		got := ReadSection(br)
		if err := br.Err(); err != nil {
			t.Fatalf("ReadSection refused what WriteSection wrote: %v", err)
		}
		var again bytes.Buffer
		bw = binio.NewWriter(&again)
		if err := WriteSection(bw, got); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatal("section round trip is not byte-identical")
		}
	})
}
