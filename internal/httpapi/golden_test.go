package httpapi

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	p2h "p2h"
)

// TestWireGolden pins the response bytes of the search and info endpoints:
// field names, their order, which fields are omitted when zero, and that an
// empty answer encodes as [] and never null. The daemon serves the library's
// own records (p2h.Result, p2h.Stats, p2h.ServerStats), so a renamed or
// reordered field there changes these bodies. The data are fixed, the result
// cache never hits (every request asks something new) and every search is
// sequential or chunked one row a worker, so each body is a function of the
// request alone. The temp directory in "source" is masked as $DIR.
func TestWireGolden(t *testing.T) {
	dir := t.TempDir()
	data := testMatrix(300, 8, 1)
	queries := p2h.GenerateQueries(data, 8, 2)
	attrs := make([]p2h.PointAttrs, data.N)
	for i := range attrs {
		if i%25 == 0 {
			attrs[i].Tags = []string{"rare"}
		}
	}
	save := func(name string, withAttrs bool) string {
		ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, LeafSize: 16, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if withAttrs {
			if err := p2h.AttachAttributes(ix, attrs); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name+".p2h")
		if err := p2h.SaveFile(path, ix); err != nil {
			t.Fatal(err)
		}
		return path
	}
	m := NewManager(p2h.ServerOptions{Workers: 2}, 0)
	for name, withAttrs := range map[string]bool{"trees": false, "tagged": true} {
		if _, _, err := m.Load(name, IndexConfig{Path: save(name, withAttrs)}, false); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		_ = m.Close(t.Context())
	})
	f := &fixture{ts: ts, dir: dir}

	cases := []struct {
		name, method, path string
		body               any
		want               string
	}{
		{"exact", http.MethodPost, "/v1/indexes/trees/search",
			SearchRequest{Query: queries.Row(0), SearchOptionsJSON: SearchOptionsJSON{K: 3}},
			`{"results":[{"id":227,"dist":0.0060715791047945},{"id":126,"dist":0.008036525110209247},{"id":29,"dist":0.008444303274667664}],"stats":{"ip_count":323,"candidates":298,"nodes_visited":49,"leaves_visited":25,"pruned_nodes":0,"pruned_points":2,"bucket_probes":0,"collab_ips":24}}`},
		{"budgeted", http.MethodPost, "/v1/indexes/trees/search",
			SearchRequest{Query: queries.Row(1), SearchOptionsJSON: SearchOptionsJSON{K: 3, Budget: 40}},
			`{"results":[{"id":140,"dist":0.006291387768197598},{"id":152,"dist":0.02435320931840379},{"id":229,"dist":0.03419944795792629}],"stats":{"ip_count":63,"candidates":40,"nodes_visited":26,"leaves_visited":4,"pruned_nodes":0,"pruned_points":0,"bucket_probes":0,"collab_ips":22}}`},
		{"pred", http.MethodPost, "/v1/indexes/tagged/search",
			SearchRequest{Query: queries.Row(2), SearchOptionsJSON: SearchOptionsJSON{K: 3, Filter: &p2h.Pred{Tag: "rare"}}},
			`{"results":[{"id":0,"dist":0.01802275045209578},{"id":150,"dist":0.09761654794138597},{"id":125,"dist":0.15719348144141287}],"stats":{"ip_count":35,"candidates":12,"nodes_visited":33,"leaves_visited":11,"pruned_nodes":0,"pruned_points":0,"bucket_probes":0,"collab_ips":22,"filter_skipped_nodes":12,"filter_skipped_points":169}}`},
		{"empty", http.MethodPost, "/v1/indexes/trees/search",
			SearchRequest{Query: queries.Row(3), SearchOptionsJSON: SearchOptionsJSON{K: 3, Filter: &p2h.Pred{Tag: "rare"}}},
			`{"results":[],"stats":{"ip_count":0,"candidates":0,"nodes_visited":0,"leaves_visited":0,"pruned_nodes":0,"pruned_points":0,"bucket_probes":0,"collab_ips":0}}`},
		{"batch", http.MethodPost, "/v1/indexes/trees/search_batch",
			BatchSearchRequest{Queries: []Vector{queries.Row(4), queries.Row(5)}, SearchOptionsJSON: SearchOptionsJSON{K: 2}},
			`{"results":[[{"id":31,"dist":0.0012534477965719937},{"id":1,"dist":0.0024941917757113075}],[{"id":172,"dist":0.0004677222927935709},{"id":44,"dist":0.0022849558940171433}]],"stats":{"ip_count":644,"candidates":594,"nodes_visited":98,"leaves_visited":50,"pruned_nodes":0,"pruned_points":6,"bucket_probes":0,"collab_ips":48}}`},
		{"info", http.MethodGet, "/v1/indexes/tagged", nil,
			`{"name":"tagged","kind":"bctree","dim":8,"n":300,"index_bytes":6728,"mutable":false,"stats":{"queries":1,"batches":1,"cache_hits":0,"cache_misses":1,"inserts":0,"deletes":0,"epoch":0,"compactions":0,"pending_delta":0,"shed":0,"expired":0,"panics":0,"degraded_queries":0,"budget_ceiling":0,"backlog":0,"filter_skipped_nodes":12,"filter_skipped_points":169},"source":{"path":"$DIR/tagged.p2h"}}`},
	}
	for _, tc := range cases {
		status, body := f.do(t, tc.method, tc.path, tc.body)
		got := strings.ReplaceAll(string(body), dir, "$DIR")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, status, got)
		}
		if got != tc.want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
