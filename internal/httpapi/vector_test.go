package httpapi

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	p2h "p2h"
)

// jsonEscapedPlus is '+' as a JSON \u escape.
const jsonEscapedPlus = `\u` + "002b"

// b64 is the JSON string a Vector of fs encodes to, built by hand so it can
// carry values MarshalJSON refuses.
func b64(fs ...float32) string {
	raw := make([]byte, 0, 4*len(fs))
	for _, f := range fs {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(f))
	}
	return `"` + base64.StdEncoding.EncodeToString(raw) + `"`
}

func TestVectorWireForm(t *testing.T) {
	for _, c := range []struct {
		v    Vector
		want string
	}{
		{nil, `null`},
		{Vector{}, `""`},
		{Vector{1, 0}, `"AACAPwAAAAA="`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil || string(got) != c.want {
			t.Errorf("Marshal(%v) = %s, %v; want %s", c.v, got, err, c.want)
		}
	}
	body, err := json.Marshal(SearchRequest{Query: Vector{1, 0}, SearchOptionsJSON: SearchOptionsJSON{K: 3}})
	if err != nil || string(body) != `{"query":"AACAPwAAAAA=","k":3}` {
		t.Errorf("SearchRequest body = %s, %v", body, err)
	}
	if _, err := json.Marshal(Vector{1, float32(math.NaN())}); err == nil {
		t.Error("Marshal encoded NaN")
	}
	// A JSON escape may spell an alphabet character; the bytes are the same.
	var plain, escaped Vector
	if err := json.Unmarshal([]byte(`"+++++w=="`), &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(strings.ReplaceAll(`"+++++w=="`, "+", jsonEscapedPlus)), &escaped); err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || math.Float32bits(plain[0]) != math.Float32bits(escaped[0]) {
		t.Errorf("escaped string decoded to %v, plain to %v", escaped, plain)
	}
}

// TestVectorRoundTripBitExact: the base64 form carries every finite float32
// bit for bit, and the decimal form decodes exactly as []float32 does.
func TestVectorRoundTripBitExact(t *testing.T) {
	v := Vector{
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest denormal
		float32(math.Copysign(0, -1)), 0,
		math.MaxFloat32, -math.MaxFloat32,
		1, -1.5, 0.1, 3.4028235e38,
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got Vector
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, v) {
		t.Fatalf("round trip %v -> %s -> %v", v, enc, got)
	}

	dec := []byte(`[1e-45,-0,3.4028235e38,0.1,-1.5,1.1754942e-38]`)
	var want []float32
	if err := json.Unmarshal(dec, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dec, &got); err != nil || !sameBits(got, want) {
		t.Fatalf("decimal %s decoded to %v (%v), []float32 to %v", dec, got, err, want)
	}
}

// TestVectorDecimalMatchesFloat32Slice: an array decodes to the values, the
// nil-ness and the error text encoding/json gives a []float32, whether the
// fast path takes it or hands it on.
func TestVectorDecimalMatchesFloat32Slice(t *testing.T) {
	for _, data := range []string{
		`[]`, ` [ ] `, `[1,2,3]`, " [ 1 , -2.5e-3 ,\n3E+2\t] ",
		`[0.1,1.1754942e-38,1e-45,1e-46,-0]`, `[3.4028235e38,-3.4028235e38]`,
		`[1e39]`, `[-1e39,2]`, `[null,1]`, `[1,"a"]`, `[true]`, `[[1]]`, `[{}]`,
		`[1,1e39,"x"]`, `[1,]`, `[01]`, `[1 2]`,
	} {
		var got Vector
		var want []float32
		errGot := json.Unmarshal([]byte(data), &got)
		errWant := json.Unmarshal([]byte(data), &want)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) || (got == nil) != (want == nil) || !sameBits(got, want) {
			t.Errorf("%s: Vector %v (%v), []float32 %v (%v)", data, got, errGot, want, errWant)
		}
	}
	var req SearchRequest
	err := json.Unmarshal([]byte(`{"query":[1,1e39]}`), &req)
	if want := "json: cannot unmarshal number 1e39 into Go struct field SearchRequest.query of type float32"; fmt.Sprint(err) != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// BenchmarkDecodeSearchBody decodes a 129-float search body, the size the
// benchmark's http-serve sends, in each vector form. "decimal-float32" is
// the decimal body decoded into []float32 fields, as before Vector existed.
func BenchmarkDecodeSearchBody(b *testing.B) {
	type float32Request struct {
		Query  []float32 `json:"query,omitempty"`
		Normal []float32 `json:"normal,omitempty"`
		Offset float64   `json:"offset,omitempty"`
		SearchOptionsJSON
	}
	q := make([]float32, 129)
	rng := rand.New(rand.NewSource(1))
	for i := range q {
		q[i] = rng.Float32()*2 - 1
	}
	opts := SearchOptionsJSON{K: 10, Budget: 200}
	decimal, err := json.Marshal(float32Request{Query: q, SearchOptionsJSON: opts})
	if err != nil {
		b.Fatal(err)
	}
	base64Body, err := json.Marshal(SearchRequest{Query: q, SearchOptionsJSON: opts})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		req  func() any
	}{
		{"base64", base64Body, func() any { return new(SearchRequest) }},
		{"decimal", decimal, func() any { return new(SearchRequest) }},
		{"decimal-float32", decimal, func() any { return new(float32Request) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := json.NewDecoder(bytes.NewReader(c.body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(c.req()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestVectorDecodeRefusals covers each vector field of the request types:
// what the string form must refuse (400 bad_request before any dimension
// check), and null or absent, which behave as they did before the string
// form existed.
func TestVectorDecodeRefusals(t *testing.T) {
	f := newFixture(t)
	q := f.queries.Row(0) // 9 floats: an 8-dimensional index's hyperplane
	fields := []struct {
		name, path, body string // body: %s is the vector
		dim              int
		nullCode         string // null decodes to a nil vector, as it always did
	}{
		{"query", "/v1/indexes/trees/search", `{"query":%s}`, 9, "bad_request"},
		{"normal", "/v1/indexes/trees/search", `{"normal":%s,"offset":0.5}`, 8, "bad_request"},
		{"queries row", "/v1/indexes/trees/search_batch", `{"queries":[` + b64(q...) + `,%s]}`, 9, "dim_mismatch"},
		{"point", "/v1/indexes/dyn/insert", `{"point":%s}`, 8, "dim_mismatch"},
	}
	withElem2 := func(dim int, x float32) string {
		v := make([]float32, dim)
		v[0], v[2] = 1, x
		return b64(v...)
	}
	for _, fd := range fields {
		for _, c := range []struct {
			name, vec, code, msg string
		}{
			{"NaN", withElem2(fd.dim, float32(math.NaN())), "bad_request", "element 2 is NaN"},
			{"+Inf", withElem2(fd.dim, float32(math.Inf(1))), "bad_request", "element 2 is +Inf"},
			{"-Inf", withElem2(fd.dim, float32(math.Inf(-1))), "bad_request", "element 2 is -Inf"},
			{"invalid base64", `"AAAA!AAA"`, "bad_request", "base64"},
			{"unpadded", `"AACAPw"`, "bad_request", "base64"},
			{"url-safe alphabet", `"-----w=="`, "bad_request", "base64"},
			{"stray bits", `"AACAPx=="`, "bad_request", "base64"},
			{"line break", `"AACA\nPw=="`, "bad_request", "base64"},
			{"5 bytes", `"AAAAAAA="`, "bad_request", "5 bytes"},
			{"number", `7`, "bad_request", "vector"},
			// Valid but one float long: the decode accepts it, the dimension
			// check does not.
			{"std alphabet", `"+++++w=="`, "dim_mismatch", ""},
			{"null", `null`, fd.nullCode, ""},
		} {
			t.Run(fd.name+"/"+c.name, func(t *testing.T) {
				status, body := f.do(t, "POST", fd.path, json.RawMessage(fmt.Sprintf(fd.body, c.vec)))
				wantError(t, status, body, 400, c.code)
				if msg := unmarshal[ErrorResponse](t, body).Error; !strings.Contains(msg, c.msg) {
					t.Errorf("error %q does not mention %q", msg, c.msg)
				}
			})
		}
	}
	for _, body := range []string{`{"k":3}`, `{"query":null,"k":3}`} {
		status, resp := f.do(t, "POST", "/v1/indexes/trees/search", json.RawMessage(body))
		wantError(t, status, resp, 400, "bad_request")
		if msg := unmarshal[ErrorResponse](t, resp).Error; !strings.Contains(msg, `missing "query"`) {
			t.Errorf("%s: error %q", body, msg)
		}
	}
}

// TestVectorRefusedInsertNeverReachesWAL: a point the decoder refuses is not
// journaled, so it cannot be replayed into the index or built into the next
// compaction.
func TestVectorRefusedInsertNeverReachesWAL(t *testing.T) {
	ix, err := p2h.New(testMatrix(50, 4, 3), p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.p2h")
	if err := p2h.SaveFile(path, ix); err != nil {
		t.Fatal(err)
	}
	m := NewManager(p2h.ServerOptions{Workers: 2}, time.Second)
	defer m.Close(context.Background())
	if _, _, err := m.Load("d", IndexConfig{Path: path, WAL: true, WALSync: "none"}, false); err != nil {
		t.Fatal(err)
	}
	f := &fixture{ts: httptest.NewServer(NewHandler(m))}
	defer f.ts.Close()
	records := func() int64 {
		info, err := m.Get("d")
		if err != nil {
			t.Fatal(err)
		}
		return info.WAL.Records
	}

	for _, x := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		status, body := f.do(t, "POST", "/v1/indexes/d/insert", json.RawMessage(`{"point":`+b64(1, 2, x, 4)+`}`))
		wantError(t, status, body, 400, "bad_request")
	}
	if n := records(); n != 0 {
		t.Fatalf("refused inserts left %d WAL records", n)
	}
	status, body := f.do(t, "POST", "/v1/indexes/d/insert", InsertRequest{Point: Vector{1, 2, 3, 4}})
	if status != 200 {
		t.Fatalf("insert: %d (%s)", status, body)
	}
	if n := records(); n != 1 {
		t.Fatalf("accepted insert left %d WAL records, want 1", n)
	}
}
