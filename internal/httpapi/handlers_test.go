package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	p2h "p2h"
)

// testMatrix builds n random d-dimensional raw points.
func testMatrix(n, d int, seed int64) *p2h.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := p2h.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// fixture is one ready-to-serve daemon over two indexes of different kinds:
// "trees" (an immutable BC-Tree opened from a .p2h container) and "dyn" (a
// mutable dynamic index built from a Spec over an fvecs file).
type fixture struct {
	ts      *httptest.Server
	queries *p2h.Matrix
	dir     string
	bctree  p2h.Index // direct handle for answer comparison
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dir := t.TempDir()
	data := testMatrix(300, 8, 1)
	queries := p2h.GenerateQueries(data, 10, 2)

	dataPath := filepath.Join(dir, "data.fvecs")
	if err := p2h.SaveFvecs(dataPath, data); err != nil {
		t.Fatal(err)
	}
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, LeafSize: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	containerPath := filepath.Join(dir, "trees.p2h")
	if err := p2h.SaveFile(containerPath, ix); err != nil {
		t.Fatal(err)
	}

	m := NewManager(p2h.ServerOptions{Workers: 2}, 0)
	if _, _, err := m.Load("trees", IndexConfig{Path: containerPath}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Load("dyn", IndexConfig{
		Spec: &p2h.Spec{Kind: p2h.KindDynamic, LeafSize: 32, Seed: 3}, Data: dataPath,
	}, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		_ = m.Close(t.Context())
	})
	return &fixture{ts: ts, queries: queries, dir: dir, bctree: ix}
}

// do runs one JSON request and decodes the response body.
func (f *fixture) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func unmarshal[T any](t *testing.T, b []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	return v
}

// wantError asserts the uniform error envelope.
func wantError(t *testing.T, status int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d (%s), want %d", status, body, wantStatus)
	}
	e := unmarshal[ErrorResponse](t, body)
	if e.Code != wantCode {
		t.Fatalf("error code %q (%s), want %q", e.Code, e.Error, wantCode)
	}
}

func TestHealthz(t *testing.T) {
	f := newFixture(t)
	status, body := f.do(t, "GET", "/healthz", nil)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	h := unmarshal[HealthResponse](t, body)
	if h.Status != "ok" || h.Indexes != 2 {
		t.Fatalf("health %+v", h)
	}
}

func TestListAndInfo(t *testing.T) {
	f := newFixture(t)
	status, body := f.do(t, "GET", "/v1/indexes", nil)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	list := unmarshal[ListResponse](t, body)
	if len(list.Indexes) != 2 || list.Indexes[0].Name != "dyn" || list.Indexes[1].Name != "trees" {
		t.Fatalf("list %+v", list)
	}

	status, body = f.do(t, "GET", "/v1/indexes/trees", nil)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	info := unmarshal[IndexInfoResponse](t, body)
	if info.Kind != p2h.KindBCTree || info.Dim != 8 || info.N != 300 || info.Mutable {
		t.Fatalf("trees info %+v", info)
	}
	status, body = f.do(t, "GET", "/v1/indexes/dyn", nil)
	info = unmarshal[IndexInfoResponse](t, body)
	if status != 200 || info.Kind != p2h.KindDynamic || !info.Mutable {
		t.Fatalf("dyn info %d %+v", status, info)
	}

	status, body = f.do(t, "GET", "/v1/indexes/ghost", nil)
	wantError(t, status, body, 404, "index_not_found")
}

func TestSearchMatchesDirect(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < f.queries.N; i++ {
		q := f.queries.Row(i)
		status, body := f.do(t, "POST", "/v1/indexes/trees/search", SearchRequest{
			Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 5},
		})
		if status != 200 {
			t.Fatalf("query %d: status %d (%s)", i, status, body)
		}
		resp := unmarshal[SearchResponse](t, body)
		want, _ := f.bctree.Search(q, p2h.SearchOptions{K: 5})
		if len(resp.Results) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(resp.Results), len(want))
		}
		for j, r := range resp.Results {
			if r.ID != want[j].ID || r.Dist != want[j].Dist {
				t.Fatalf("query %d rank %d: %+v != %+v", i, j, r, want[j])
			}
		}
		if resp.Stats.Candidates == 0 {
			t.Fatalf("query %d: empty stats", i)
		}
	}
}

func TestSearchNormalOffsetForm(t *testing.T) {
	f := newFixture(t)
	q := f.queries.Row(0)
	normal, offset := q[:len(q)-1], float64(q[len(q)-1])
	status, body := f.do(t, "POST", "/v1/indexes/trees/search", SearchRequest{
		Normal: normal, Offset: offset, SearchOptionsJSON: SearchOptionsJSON{K: 3},
	})
	if status != 200 {
		t.Fatalf("status %d (%s)", status, body)
	}
	resp := unmarshal[SearchResponse](t, body)
	want, _ := f.bctree.Search(q, p2h.SearchOptions{K: 3})
	for j, r := range resp.Results {
		if r.ID != want[j].ID {
			t.Fatalf("rank %d: %+v != %+v", j, r, want[j])
		}
	}
}

func TestSearchOptionsMapped(t *testing.T) {
	f := newFixture(t)
	q := f.queries.Row(1)
	// A tight budget must cap the candidate count exactly as SearchOptions does.
	status, body := f.do(t, "POST", "/v1/indexes/trees/search", SearchRequest{
		Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 3, Budget: 40},
	})
	if status != 200 {
		t.Fatalf("status %d (%s)", status, body)
	}
	resp := unmarshal[SearchResponse](t, body)
	want, wantStats := f.bctree.Search(q, p2h.SearchOptions{K: 3, Budget: 40})
	if resp.Stats.Candidates != wantStats.Candidates {
		t.Fatalf("candidates %d, want %d", resp.Stats.Candidates, wantStats.Candidates)
	}
	for j, r := range resp.Results {
		if r.ID != want[j].ID {
			t.Fatalf("rank %d: %+v != %+v", j, r, want[j])
		}
	}
}

func TestSearchErrorMapping(t *testing.T) {
	f := newFixture(t)
	q := f.queries.Row(0)
	for name, c := range map[string]struct {
		path   string
		body   any
		status int
		code   string
	}{
		"unknown index": {"/v1/indexes/ghost/search", SearchRequest{Query: q}, 404, "index_not_found"},
		"missing query": {"/v1/indexes/trees/search", SearchRequest{}, 400, "bad_request"},
		"both forms":    {"/v1/indexes/trees/search", SearchRequest{Query: q, Normal: q[:8]}, 400, "bad_request"},
		"short query":   {"/v1/indexes/trees/search", SearchRequest{Query: q[:4]}, 400, "dim_mismatch"},
		"zero normal":   {"/v1/indexes/trees/search", SearchRequest{Query: make([]float32, 9)}, 400, "zero_normal"},
		// The paper's ablation switches are in-process options, not wire fields.
		"bad preference":  {"/v1/indexes/trees/search", map[string]any{"query": q, "preference": "lower-bound"}, 400, "bad_request"},
		"ablation switch": {"/v1/indexes/trees/search", map[string]any{"query": q, "point_cone": true}, 400, "bad_request"},
		"negative k":      {"/v1/indexes/trees/search", SearchRequest{Query: q, SearchOptionsJSON: SearchOptionsJSON{K: -2}}, 400, "bad_request"},
		"unknown field":   {"/v1/indexes/trees/search", map[string]any{"query": q, "nope": 1}, 400, "bad_request"},
		// The Lemma 2 switch is gone from the wire, not ignored on it.
		"retired switch": {"/v1/indexes/trees/search", map[string]any{"query": q, "disable_collab_ip": true}, 400, "bad_request"},
	} {
		status, body := f.do(t, "POST", c.path, c.body)
		t.Run(name, func(t *testing.T) { wantError(t, status, body, c.status, c.code) })
	}
	// Raw non-JSON body.
	resp, err := f.ts.Client().Post(f.ts.URL+"/v1/indexes/trees/search", "application/json",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("raw garbage: status %d", resp.StatusCode)
	}
}

func TestSearchBatchMatchesPerQuery(t *testing.T) {
	f := newFixture(t)
	qs := make([]Vector, f.queries.N)
	for i := range qs {
		qs[i] = f.queries.Row(i)
	}
	status, body := f.do(t, "POST", "/v1/indexes/trees/search_batch", BatchSearchRequest{
		Queries: qs, SearchOptionsJSON: SearchOptionsJSON{K: 4},
	})
	if status != 200 {
		t.Fatalf("status %d (%s)", status, body)
	}
	resp := unmarshal[BatchSearchResponse](t, body)
	if len(resp.Results) != len(qs) {
		t.Fatalf("%d result rows, want %d", len(resp.Results), len(qs))
	}
	for i, q := range qs {
		want, _ := f.bctree.Search(q, p2h.SearchOptions{K: 4})
		for j, r := range resp.Results[i] {
			if r.ID != want[j].ID || r.Dist != want[j].Dist {
				t.Fatalf("query %d rank %d: %+v != %+v", i, j, r, want[j])
			}
		}
	}
	if resp.Stats.Candidates == 0 {
		t.Fatal("aggregate stats empty")
	}
}

// The decimal forms of the search requests: []float32 fields, which
// encoding/json writes as arrays of numbers, as curl users and clients
// predating Vector send them.
type decimalSearch struct {
	Query []float32 `json:"query"`
	SearchOptionsJSON
}

type decimalBatch struct {
	Queries [][]float32 `json:"queries"`
	SearchOptionsJSON
}

// TestDecimalAndBase64AnswerByteIdentical sends each request as decimal to
// one daemon and as base64 to an identical one — two daemons, so neither
// answer comes from the other's result cache — and requires the same
// response bytes: single, budgeted, filtered and batch.
func TestDecimalAndBase64AnswerByteIdentical(t *testing.T) {
	dec, bin := newFixture(t), newFixture(t)
	qs := make([][]float32, dec.queries.N)
	vs := make([]Vector, dec.queries.N)
	for i := range qs {
		qs[i] = dec.queries.Row(i)
		vs[i] = qs[i]
	}
	filter := p2h.NotOf(p2h.TagIs("absent")) // the fixture has no tags: matches every point
	for _, opts := range []SearchOptionsJSON{
		{K: 5},
		{K: 3, Budget: 40},
		{K: 5, Filter: filter},
		{K: 4, Budget: 60, Filter: filter},
	} {
		type request struct {
			path            string
			decimal, base64 any
		}
		reqs := []request{{"/v1/indexes/trees/search_batch",
			decimalBatch{qs, opts}, BatchSearchRequest{Queries: vs, SearchOptionsJSON: opts}}}
		for i := range qs {
			reqs = append(reqs, request{"/v1/indexes/trees/search",
				decimalSearch{qs[i], opts}, SearchRequest{Query: vs[i], SearchOptionsJSON: opts}})
		}
		for _, r := range reqs {
			s1, want := dec.do(t, "POST", r.path, r.decimal)
			s2, got := bin.do(t, "POST", r.path, r.base64)
			if s1 != 200 || s2 != 200 || !bytes.Equal(want, got) {
				t.Fatalf("%s %+v: decimal answered %d %s, base64 %d %s", r.path, opts, s1, want, s2, got)
			}
		}
	}
}

func TestSearchBatchErrors(t *testing.T) {
	f := newFixture(t)
	status, body := f.do(t, "POST", "/v1/indexes/trees/search_batch", BatchSearchRequest{})
	wantError(t, status, body, 400, "bad_request")
	status, body = f.do(t, "POST", "/v1/indexes/trees/search_batch", BatchSearchRequest{
		Queries: []Vector{f.queries.Row(0), {1, 2}},
	})
	wantError(t, status, body, 400, "dim_mismatch")
}

func TestInsertAndDeletePoint(t *testing.T) {
	f := newFixture(t)
	// A far-out point along the first axis; the hyperplane x0 = 0 then has it
	// at distance ~100.
	p := make([]float32, 8)
	p[0] = 100
	status, body := f.do(t, "POST", "/v1/indexes/dyn/insert", InsertRequest{Point: p})
	if status != 200 {
		t.Fatalf("insert: %d (%s)", status, body)
	}
	h := unmarshal[InsertResponse](t, body).Handle

	q := make([]float32, 9)
	q[0] = 1
	q[8] = -100 // hyperplane x0 = 100: the new point is distance 0
	status, body = f.do(t, "POST", "/v1/indexes/dyn/search", SearchRequest{
		Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 1},
	})
	if status != 200 {
		t.Fatalf("search: %d (%s)", status, body)
	}
	if res := unmarshal[SearchResponse](t, body).Results; len(res) != 1 || res[0].ID != h {
		t.Fatalf("inserted point not found: %+v (handle %d)", res, h)
	}

	status, body = f.do(t, "DELETE", fmt.Sprintf("/v1/indexes/dyn/points/%d", h), nil)
	if status != 200 {
		t.Fatalf("delete: %d (%s)", status, body)
	}
	if d := unmarshal[DeleteResponse](t, body); !d.Deleted || d.Handle != h {
		t.Fatalf("delete response %+v", d)
	}
	// Deleting again: the handle is dead.
	status, body = f.do(t, "DELETE", fmt.Sprintf("/v1/indexes/dyn/points/%d", h), nil)
	wantError(t, status, body, 404, "handle_not_found")
}

func TestMutationErrorMapping(t *testing.T) {
	f := newFixture(t)
	p := make([]float32, 8)
	// The immutable BC-Tree maps ErrImmutable onto 405.
	status, body := f.do(t, "POST", "/v1/indexes/trees/insert", InsertRequest{Point: p})
	wantError(t, status, body, 405, "immutable")
	status, body = f.do(t, "DELETE", "/v1/indexes/trees/points/0", nil)
	wantError(t, status, body, 405, "immutable")
	// Wrong dimensionality is rejected before it can reach the index.
	status, body = f.do(t, "POST", "/v1/indexes/dyn/insert", InsertRequest{Point: p[:3]})
	wantError(t, status, body, 400, "dim_mismatch")
	// So is a payload no container or log could carry, and nothing lands.
	info := func() int {
		status, body := f.do(t, "GET", "/v1/indexes/dyn", nil)
		if status != 200 {
			t.Fatalf("info: %d (%s)", status, body)
		}
		return unmarshal[IndexInfoResponse](t, body).N
	}
	n := info()
	status, body = f.do(t, "POST", "/v1/indexes/dyn/insert", InsertRequest{
		Point: p, Attrs: &p2h.PointAttrs{Tags: []string{strings.Repeat("t", 5000)}},
	})
	wantError(t, status, body, 400, "bad_request")
	if got := info(); got != n {
		t.Fatalf("refused insert moved n from %d to %d", n, got)
	}
	// A non-numeric handle is a request error.
	status, body = f.do(t, "DELETE", "/v1/indexes/dyn/points/xyz", nil)
	wantError(t, status, body, 400, "bad_request")
}

func TestSnapshotAndHotReload(t *testing.T) {
	f := newFixture(t)
	// Mutate, snapshot, then hot-swap the index from its own snapshot.
	p := make([]float32, 8)
	p[0] = 42
	status, body := f.do(t, "POST", "/v1/indexes/dyn/insert", InsertRequest{Point: p})
	if status != 200 {
		t.Fatalf("insert: %d (%s)", status, body)
	}
	snap := filepath.Join(f.dir, "dyn-snap.p2h")
	status, body = f.do(t, "POST", "/v1/indexes/dyn/snapshot", SnapshotRequest{Path: snap})
	if status != 200 {
		t.Fatalf("snapshot: %d (%s)", status, body)
	}
	sr := unmarshal[SnapshotResponse](t, body)
	st, err := os.Stat(snap)
	if err != nil || st.Size() != sr.Bytes {
		t.Fatalf("snapshot file: %v (size %d, reported %d)", err, st.Size(), sr.Bytes)
	}

	status, body = f.do(t, "POST", "/v1/indexes/dyn", LoadRequest{
		IndexConfig: IndexConfig{Path: snap}, Replace: true,
	})
	if status != 200 {
		t.Fatalf("hot reload: %d (%s)", status, body)
	}
	info := unmarshal[IndexInfoResponse](t, body)
	if info.Kind != p2h.KindDynamic || info.N != 301 {
		t.Fatalf("reloaded info %+v", info)
	}
	// The restored index still finds the inserted point.
	q := make([]float32, 9)
	q[0] = 1
	q[8] = -42
	status, body = f.do(t, "POST", "/v1/indexes/dyn/search", SearchRequest{
		Query: q, SearchOptionsJSON: SearchOptionsJSON{K: 1},
	})
	if status != 200 {
		t.Fatalf("post-reload search: %d (%s)", status, body)
	}
	if res := unmarshal[SearchResponse](t, body).Results; len(res) != 1 || res[0].Dist > 1e-3 {
		t.Fatalf("post-reload search: %+v", res)
	}

	// Snapshot request errors.
	status, body = f.do(t, "POST", "/v1/indexes/dyn/snapshot", SnapshotRequest{})
	wantError(t, status, body, 400, "bad_request")
	status, body = f.do(t, "POST", "/v1/indexes/ghost/snapshot", SnapshotRequest{Path: snap})
	wantError(t, status, body, 404, "index_not_found")
}

func TestAdminLoadUnload(t *testing.T) {
	f := newFixture(t)
	dataPath := filepath.Join(f.dir, "data.fvecs")

	// Load a third index of another kind from an inline spec.
	status, body := f.do(t, "POST", "/v1/indexes/ball", LoadRequest{
		IndexConfig: IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBallTree, LeafSize: 16}, Data: dataPath},
	})
	if status != 201 {
		t.Fatalf("load: %d (%s)", status, body)
	}
	if info := unmarshal[IndexInfoResponse](t, body); info.Kind != p2h.KindBallTree || info.N != 300 {
		t.Fatalf("loaded info %+v", info)
	}

	// Its queries serve immediately.
	status, body = f.do(t, "POST", "/v1/indexes/ball/search", SearchRequest{
		Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 2},
	})
	if status != 200 {
		t.Fatalf("search on hot-loaded index: %d (%s)", status, body)
	}

	// Name collision without replace.
	status, body = f.do(t, "POST", "/v1/indexes/ball", LoadRequest{
		IndexConfig: IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindBallTree}, Data: dataPath},
	})
	wantError(t, status, body, 409, "index_exists")

	// Unload, then the name is gone.
	status, body = f.do(t, "DELETE", "/v1/indexes/ball", nil)
	if status != 200 {
		t.Fatalf("unload: %d (%s)", status, body)
	}
	if u := unmarshal[UnloadResponse](t, body); !u.Unloaded || !u.Drained {
		t.Fatalf("unload response %+v", u)
	}
	status, body = f.do(t, "DELETE", "/v1/indexes/ball", nil)
	wantError(t, status, body, 404, "index_not_found")
}

func TestAdminLoadErrorMapping(t *testing.T) {
	f := newFixture(t)
	dataPath := filepath.Join(f.dir, "data.fvecs")
	badContainer := filepath.Join(f.dir, "bad.p2h")
	if err := os.WriteFile(badContainer, []byte("this is not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		path   string
		body   LoadRequest
		status int
		code   string
	}{
		"unknown kind": {"/v1/indexes/x1", LoadRequest{IndexConfig: IndexConfig{
			Spec: &p2h.Spec{Kind: "warp-drive"}, Data: dataPath}}, 400, "unknown_kind"},
		"empty config": {"/v1/indexes/x2", LoadRequest{}, 400, "bad_request"},
		"path plus spec": {"/v1/indexes/x3", LoadRequest{IndexConfig: IndexConfig{
			Path: badContainer, Spec: &p2h.Spec{Kind: p2h.KindBCTree}}}, 400, "bad_request"},
		"bad container": {"/v1/indexes/x4", LoadRequest{IndexConfig: IndexConfig{
			Path: badContainer}}, 400, "bad_container"},
		"missing file": {"/v1/indexes/x5", LoadRequest{IndexConfig: IndexConfig{
			Path: filepath.Join(f.dir, "ghost.p2h")}}, 400, "file_not_found"},
		"dim mismatch": {"/v1/indexes/x6", LoadRequest{IndexConfig: IndexConfig{
			Spec: &p2h.Spec{Kind: p2h.KindBCTree, Dim: 99}, Data: dataPath}}, 400, "dim_mismatch"},
		"spec without data": {"/v1/indexes/x7", LoadRequest{IndexConfig: IndexConfig{
			Spec: &p2h.Spec{Kind: p2h.KindBCTree}}}, 400, "bad_request"},
		"bad name": {"/v1/indexes/no%2Fslashes", LoadRequest{IndexConfig: IndexConfig{
			Spec: &p2h.Spec{Kind: p2h.KindBCTree}, Data: dataPath}}, 400, "bad_request"},
	} {
		status, body := f.do(t, "POST", c.path, c.body)
		t.Run(name, func(t *testing.T) { wantError(t, status, body, c.status, c.code) })
	}
}

func TestMetricsExposition(t *testing.T) {
	f := newFixture(t)
	// Generate some traffic first: searches, a 404, an insert.
	f.do(t, "POST", "/v1/indexes/trees/search", SearchRequest{Query: f.queries.Row(0)})
	f.do(t, "POST", "/v1/indexes/ghost/search", SearchRequest{Query: f.queries.Row(0)})
	p := make([]float32, 8)
	f.do(t, "POST", "/v1/indexes/dyn/insert", InsertRequest{Point: p})

	status, body := f.do(t, "GET", "/metrics", nil)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`p2hd_http_requests_total{endpoint="search",code="200"} 1`,
		`p2hd_http_requests_total{endpoint="search",code="404"} 1`,
		`p2hd_http_requests_total{endpoint="insert",code="200"} 1`,
		`p2hd_http_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 2`,
		`p2hd_http_request_duration_seconds_count{endpoint="search"} 2`,
		`p2hd_index_queries_total{index="trees",kind="bctree"} 1`,
		`p2hd_index_inserts_total{index="dyn",kind="dynamic"} 1`,
		`p2hd_index_points{index="dyn",kind="dynamic"} 301`,
		`# TYPE p2hd_http_request_duration_seconds histogram`,
		`# TYPE p2hd_index_queries_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestConcurrentTraffic is the acceptance scenario: concurrent search +
// mutation + snapshot/hot-reload over HTTP against two named indexes of
// different kinds, raced under -race.
func TestConcurrentTraffic(t *testing.T) {
	f := newFixture(t)
	snap := filepath.Join(f.dir, "concurrent-snap.p2h")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "trees"
			if g%2 == 1 {
				name = "dyn"
			}
			for i := 0; i < 25; i++ {
				status, body := f.do(t, "POST", "/v1/indexes/"+name+"/search", SearchRequest{
					Query: f.queries.Row((g + i) % f.queries.N), SearchOptionsJSON: SearchOptionsJSON{K: 3},
				})
				if status != 200 {
					t.Errorf("search %s: %d (%s)", name, status, body)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := make([]float32, 8)
		for i := 0; i < 20; i++ {
			p[0] = float32(i)
			status, body := f.do(t, "POST", "/v1/indexes/dyn/insert", InsertRequest{Point: p})
			if status != 200 {
				t.Errorf("insert: %d (%s)", status, body)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			status, body := f.do(t, "POST", "/v1/indexes/dyn/snapshot", SnapshotRequest{Path: snap})
			if status != 200 {
				t.Errorf("snapshot: %d (%s)", status, body)
				return
			}
			status, body = f.do(t, "POST", "/v1/indexes/dyn", LoadRequest{
				IndexConfig: IndexConfig{Path: snap}, Replace: true,
			})
			if status != 200 {
				t.Errorf("hot reload: %d (%s)", status, body)
				return
			}
		}
	}()
	wg.Wait()

	// Both indexes still answer after the storm.
	for _, name := range []string{"trees", "dyn"} {
		status, body := f.do(t, "POST", "/v1/indexes/"+name+"/search", SearchRequest{
			Query: f.queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 1},
		})
		if status != 200 {
			t.Fatalf("final search %s: %d (%s)", name, status, body)
		}
	}
}

func TestSnapshotBuildOnlyKindMapped(t *testing.T) {
	f := newFixture(t)
	dataPath := filepath.Join(f.dir, "data.fvecs")
	status, body := f.do(t, "POST", "/v1/indexes/hash", LoadRequest{
		IndexConfig: IndexConfig{Spec: &p2h.Spec{Kind: p2h.KindNH}, Data: dataPath},
	})
	if status != 201 {
		t.Fatalf("load nh: %d (%s)", status, body)
	}
	status, body = f.do(t, "POST", "/v1/indexes/hash/snapshot",
		SnapshotRequest{Path: filepath.Join(f.dir, "nh.p2h")})
	wantError(t, status, body, 400, "not_persistable")
}

func TestBodyTooLargeMapping(t *testing.T) {
	if status, code := ErrorStatus(fmt.Errorf("%w: body exceeds 1 bytes", ErrBodyTooLarge)); status != 413 || code != "body_too_large" {
		t.Fatalf("ErrBodyTooLarge mapped to %d %q", status, code)
	}
}
