package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeRequest runs DecodeBody over body into v, as a handler would.
func decodeRequest(body []byte, v any) error {
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	return DecodeBody(httptest.NewRecorder(), r, v)
}

// vectorsOf lists the float vectors of a decoded request, in field order.
func vectorsOf(v any) []Vector {
	switch req := v.(type) {
	case *SearchRequest:
		return []Vector{req.Query, req.Normal}
	case *BatchSearchRequest:
		return req.Queries
	case *InsertRequest:
		return []Vector{req.Point}
	}
	panic("no vector fields")
}

// FuzzDecodeBody feeds arbitrary bytes to DecodeBody as each request type
// that carries vectors. Nothing may panic; every vector accepted must be
// finite; and an accepted request, marshalled again (the router's member
// call does exactly that), must decode again to the same bits. The same
// bytes decoded as one Vector must give what encoding/json gives a
// []float32 whenever they are an array: values, nil-ness and error text.
func FuzzDecodeBody(f *testing.F) {
	q := b64(1, 0, 0, 0.5)
	for _, seed := range []string{
		`{"query":[1,0,0,0.5],"k":3}`,
		`{"query":` + q + `,"k":3,"budget":10}`,
		`{"normal":"AACAPwAAAAA=","offset":-2}`,
		`{"query":"` + strings.ReplaceAll("+++++w==", "+", jsonEscapedPlus) + `"}`,
		`{"query":"AACA\/w=="}`,
		`{"query":null}`,
		`{"query":[1e39,0]}`,
		`{"query":[-3.5e38]}`,
		`{"query":"AACAPw"}`,
		`{"query":"AACAPwAAAA"}`,
		`{"queries":[` + q + `,[1,2,3],null],"k":2,"filter":{"tag":"a"}}`,
		`{"queries":["AAAAAAA="]}`,
		`{"point":` + b64(0, float32(math.Inf(1))) + `}`,
		`{"point":[1,2],"attrs":{"tags":["x"],"floats":{"p":1.5}}}`,
		" [ 1 , -2.5e-3 ,\n3E+2\t] ",
		`[null,1e39,"a"]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
			var got Vector
			var want []float32
			errGot := json.Unmarshal(body, &got)
			errWant := json.Unmarshal(body, &want)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) || (got == nil) != (want == nil) || !sameBits(got, want) {
				t.Fatalf("%s: Vector %v (%v), []float32 %v (%v)", body, got, errGot, want, errWant)
			}
		}
		for _, newReq := range []func() any{
			func() any { return new(SearchRequest) },
			func() any { return new(BatchSearchRequest) },
			func() any { return new(InsertRequest) },
		} {
			req := newReq()
			if decodeRequest(body, req) != nil {
				continue
			}
			vs := vectorsOf(req)
			for _, v := range vs {
				if err := checkFinite(v); err != nil {
					t.Fatalf("%T accepted %s: %v", req, body, err)
				}
			}
			again, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("%T re-marshal of %s: %v", req, body, err)
			}
			back := newReq()
			if err := decodeRequest(again, back); err != nil {
				t.Fatalf("%T: %s re-marshalled as %s, which fails to decode: %v", req, body, again, err)
			}
			ws := vectorsOf(back)
			if len(ws) != len(vs) {
				t.Fatalf("%T: %d vectors after the round trip, %d before", req, len(ws), len(vs))
			}
			for i := range vs {
				if !sameBits(vs[i], ws[i]) {
					t.Fatalf("%T vector %d: %v became %v through %s", req, i, vs[i], ws[i], again)
				}
			}
		}
	})
}
