package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	p2h "p2h"
	"p2h/internal/core"
	"p2h/internal/httpapi"
)

// The correctness oracle: a 3-member cluster built from p2h.ShardPlan must
// answer byte-identically to a single daemon serving the equivalent
// in-process sharded index.

type fixture struct {
	t       *testing.T
	data    *p2h.Matrix
	spec    p2h.Spec
	plan    [][]int32
	queries *p2h.Matrix

	oracle   *httptest.Server   // single daemon serving the sharded index
	members  []*httptest.Server // member daemons, one per manager
	managers []*httpapi.Manager

	// slow[i] true makes member i's search handlers hang until the request
	// context cancels (recording on canceled) or a long timeout passes.
	slow     []atomic.Bool
	canceled chan string

	cfg    Config
	rt     *Router
	router *httptest.Server
}

const (
	testShards  = 3
	testMembers = 3
)

// newFixture builds the whole test cluster: the data, the sharded oracle
// daemon, one member daemon per shard (each also holding the next shard as a
// replica), and a router over them. tweak, if non-nil, edits the cluster
// config before the router is built.
func newFixture(t *testing.T, tweak func(*Config)) *fixture {
	t.Helper()
	f := &fixture{
		t:        t,
		slow:     make([]atomic.Bool, testMembers),
		canceled: make(chan string, 64),
	}
	f.data = p2h.Dedup(p2h.GenerateDataset("Sift", 1200, 7))
	f.queries = p2h.GenerateQueries(f.data, 12, 11)
	f.spec = p2h.Spec{Kind: p2h.KindSharded, Shards: testShards, LeafSize: 25, Seed: 42}
	attrs := clusterAttrs(f.data.N)
	dir := t.TempDir()

	// The oracle daemon: the sharded index in one process, with attribute
	// payloads attached so declarative predicates have something to filter.
	sharded, err := p2h.New(f.data, f.spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2h.AttachAttributes(sharded, attrs); err != nil {
		t.Fatal(err)
	}
	shardedPath := filepath.Join(dir, "sharded.p2h")
	if err := p2h.SaveFile(shardedPath, sharded); err != nil {
		t.Fatal(err)
	}
	f.oracle = f.newDaemon(map[string]string{"trees": shardedPath}, -1)

	// The members: shard si's tree is built exactly as Sharded builds it —
	// the plan's rows, the derived seed — so the cluster serves the same
	// trees out of process. Each shard carries its own rows' payloads in
	// shard-local order, exactly as p2htool cluster split -attrs writes them.
	f.plan = p2h.ShardPlan(f.data, f.spec)
	if len(f.plan) != testShards {
		t.Fatalf("plan has %d shards, want %d", len(f.plan), testShards)
	}
	shardPaths := make([]string, testShards)
	for si, part := range f.plan {
		ix, err := p2h.New(f.data.SubsetRows(part), p2h.Spec{
			Kind: p2h.KindBCTree, LeafSize: f.spec.LeafSize, Seed: f.spec.Seed + int64(si) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sub := make([]p2h.PointAttrs, len(part))
		for i, row := range part {
			sub[i] = attrs[row]
		}
		if err := p2h.AttachAttributes(ix, sub); err != nil {
			t.Fatal(err)
		}
		shardPaths[si] = filepath.Join(dir, fmt.Sprintf("shard%d.p2h", si))
		if err := p2h.SaveFile(shardPaths[si], ix); err != nil {
			t.Fatal(err)
		}
	}
	f.cfg = Config{
		Members: map[string]MemberConfig{},
		Indexes: map[string]IndexMap{"trees": {}},
		Hedge:   HedgeConfig{Delay: httpapi.Duration(15 * time.Millisecond)},
	}
	im := f.cfg.Indexes["trees"]
	for mi := 0; mi < testMembers; mi++ {
		// Member mi serves shard mi as primary and shard (mi-1+M)%M as the
		// replica of member (mi-1+M)%M's shard.
		serve := map[string]string{
			fmt.Sprintf("trees-s%d", mi):                             shardPaths[mi],
			fmt.Sprintf("trees-s%d", (mi-1+testMembers)%testMembers): shardPaths[(mi-1+testMembers)%testMembers],
		}
		f.members = append(f.members, f.newMemberDaemon(mi, serve))
		f.cfg.Members[fmt.Sprintf("m%d", mi)] = MemberConfig{URL: f.members[mi].URL}
	}
	for si := range f.plan {
		im.Shards = append(im.Shards, ShardConfig{
			Index:    fmt.Sprintf("trees-s%d", si),
			Primary:  fmt.Sprintf("m%d", si),
			Replicas: []string{fmt.Sprintf("m%d", (si+1)%testMembers)},
			IDs:      f.plan[si],
		})
	}
	f.cfg.Indexes["trees"] = im
	if tweak != nil {
		tweak(&f.cfg)
	}

	rt, err := NewRouter(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	rt.probeRound()
	f.router = httptest.NewServer(NewHandler(rt))
	t.Cleanup(f.router.Close)
	return f
}

// newDaemon stands up one member daemon serving the given name->container
// map. cache<0 disables the result cache so stats stay deterministic.
func (f *fixture) newDaemon(indexes map[string]string, cache int) *httptest.Server {
	f.t.Helper()
	m := httpapi.NewManager(p2h.ServerOptions{Workers: 2, CacheEntries: cache}, time.Second)
	for name, path := range indexes {
		if _, _, err := m.Load(name, httpapi.IndexConfig{Path: path}, false); err != nil {
			f.t.Fatal(err)
		}
	}
	f.managers = append(f.managers, m)
	ts := httptest.NewServer(httpapi.NewHandler(m))
	f.t.Cleanup(func() {
		ts.Close()
		_ = m.Close(context.Background())
	})
	return ts
}

// newMemberDaemon is newDaemon plus the slow-member chaos hook used by the
// hedge tests.
func (f *fixture) newMemberDaemon(mi int, indexes map[string]string) *httptest.Server {
	f.t.Helper()
	ts := f.newDaemon(indexes, -1)
	inner := ts.Config.Handler
	ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.slow[mi].Load() && strings.Contains(r.URL.Path, "/search") {
			// Drain the body: the server only watches for client disconnect
			// (which cancels r.Context()) once the request body hits EOF.
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
				f.canceled <- fmt.Sprintf("m%d", mi)
				return
			case <-time.After(10 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	})
	return ts
}

// post sends raw JSON to a server path and returns status and body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// postBoth posts the same body to the oracle and the router, requires 200
// from both, and returns the two answers.
func (f *fixture) postBoth(path string, body []byte) (want, got []byte) {
	f.t.Helper()
	wantStatus, want := post(f.t, f.oracle, path, body)
	gotStatus, got := post(f.t, f.router, path, body)
	if wantStatus != http.StatusOK {
		f.t.Fatalf("oracle answered %d: %s", wantStatus, want)
	}
	if gotStatus != http.StatusOK {
		f.t.Fatalf("router answered %d: %s", gotStatus, got)
	}
	return want, got
}

// mustEqualResponses requires byte-identical answers to a single-query
// /search: results and stats. A sequential search's work counters are a
// function of (index, request), so they belong in the identity.
func (f *fixture) mustEqualResponses(path string, body []byte) {
	f.t.Helper()
	want, got := f.postBoth(path, body)
	if !bytes.Equal(want, got) {
		f.t.Fatalf("router answer differs from oracle\nbody: %s\noracle: %s\nrouter: %s", body, want, got)
	}
}

// mustEqualBatchResults requires byte-identical "results" from a
// /search_batch and only the presence of "stats": work counters from the
// shared batched traversal also depend on which queries shared a chunk (the
// group's branch-order vote changes each query's λ history), and the daemon
// sizes chunks by worker count and arrival timing — they are advisory (see
// DESIGN.md, "Work counters") and differ between oracle and router whenever
// GOMAXPROCS >= 2.
func (f *fixture) mustEqualBatchResults(path string, body []byte) {
	f.t.Helper()
	type batchAnswer struct {
		Results []json.RawMessage `json:"results"`
		Stats   json.RawMessage   `json:"stats"`
	}
	var want, got batchAnswer
	wantRaw, gotRaw := f.postBoth(path, body)
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		f.t.Fatalf("oracle answer: %v", err)
	}
	if err := json.Unmarshal(gotRaw, &got); err != nil {
		f.t.Fatalf("router answer: %v", err)
	}
	if len(want.Stats) == 0 || len(got.Stats) == 0 {
		f.t.Fatalf("stats missing: oracle %q, router %q", want.Stats, got.Stats)
	}
	if len(want.Results) != len(got.Results) {
		f.t.Fatalf("oracle answered %d queries, router %d", len(want.Results), len(got.Results))
	}
	for qi := range want.Results {
		if bytes.Equal(want.Results[qi], got.Results[qi]) {
			continue
		}
		var w, g []httpapi.ResultJSON
		if json.Unmarshal(want.Results[qi], &w) != nil || json.Unmarshal(got.Results[qi], &g) != nil || len(w) != len(g) {
			f.t.Fatalf("query %d: oracle returned %d results, router %d", qi, len(w), len(g))
		}
		for rank := range w {
			if w[rank] != g[rank] {
				f.t.Fatalf("query %d rank %d: oracle %+v, router %+v", qi, rank, w[rank], g[rank])
			}
		}
		f.t.Fatalf("query %d: results encode differently: %s vs %s", qi, want.Results[qi], got.Results[qi])
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRouterOracleByteIdentical(t *testing.T) {
	f := newFixture(t, nil)
	n := f.data.N
	cases := []struct {
		name string
		opts httpapi.SearchOptionsJSON
	}{
		{"exact_k10", httpapi.SearchOptionsJSON{K: 10}},
		{"default_k", httpapi.SearchOptionsJSON{}},
		{"budgeted", httpapi.SearchOptionsJSON{K: 10, Budget: 100}},
		{"budget_1", httpapi.SearchOptionsJSON{K: 5, Budget: 1}},
		{"k_exceeds_n", httpapi.SearchOptionsJSON{K: n + 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for qi := 0; qi < f.queries.N; qi++ {
				body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(qi), SearchOptionsJSON: tc.opts})
				f.mustEqualResponses("/v1/indexes/trees/search", body)
			}
		})
	}
}

// clusterAttrs builds the deterministic per-row payloads the fixture attaches
// to both the sharded oracle and the member shard trees: tags at roughly 1%,
// 10% and 50% selectivity plus a numeric field, keyed by global row id.
func clusterAttrs(n int) []p2h.PointAttrs {
	attrs := make([]p2h.PointAttrs, n)
	for i := range attrs {
		var tags []string
		if i%100 == 0 {
			tags = append(tags, "hot")
		}
		if i%10 == 0 {
			tags = append(tags, "warm")
		}
		if i%2 == 0 {
			tags = append(tags, "even")
		}
		attrs[i] = p2h.PointAttrs{
			Tags:   tags,
			Floats: map[string]float64{"score": float64(i%1000) / 1000},
		}
	}
	return attrs
}

// TestRouterPredOracleByteIdentical proves declarative predicates survive the
// wire: a filtered search routed through the cluster — serialized in the
// request body, fanned out to the shard members, merged by the router — must
// answer byte-identically to the single-daemon sharded oracle, across
// selectivities from ~1% to everything-matches-nothing.
func TestRouterPredOracleByteIdentical(t *testing.T) {
	f := newFixture(t, nil)
	cases := []struct {
		name string
		pred *p2h.Pred
	}{
		{"tag_1pct", p2h.TagIs("hot")},
		{"tag_10pct", p2h.TagIs("warm")},
		{"tag_50pct", p2h.TagIs("even")},
		{"range_20pct", p2h.FieldBetween("score", 0.2, 0.4)},
		{"and", p2h.AllOf(p2h.TagIs("even"), p2h.FieldAtLeast("score", 0.5))},
		{"or", p2h.OneOf(p2h.TagIs("hot"), p2h.FieldAtMost("score", 0.05))},
		{"not", p2h.NotOf(p2h.TagIs("even"))},
		{"empty", p2h.TagIs("no-such-tag")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := httpapi.SearchOptionsJSON{K: 10, Filter: tc.pred}
			for qi := 0; qi < f.queries.N; qi++ {
				body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(qi), SearchOptionsJSON: opts})
				f.mustEqualResponses("/v1/indexes/trees/search", body)
			}
			queries := make([]httpapi.Vector, f.queries.N)
			for qi := range queries {
				queries[qi] = f.queries.Row(qi)
			}
			body := marshal(t, httpapi.BatchSearchRequest{Queries: queries, SearchOptionsJSON: opts})
			f.mustEqualBatchResults("/v1/indexes/trees/search_batch", body)
		})
	}
	// Budgeted filtered fan-out exercises the router's budget split together
	// with the predicate.
	budgeted := httpapi.SearchOptionsJSON{K: 10, Budget: 150, Filter: p2h.TagIs("warm")}
	for qi := 0; qi < f.queries.N; qi++ {
		body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(qi), SearchOptionsJSON: budgeted})
		f.mustEqualResponses("/v1/indexes/trees/search", body)
	}
}

func TestRouterBatchOracleByteIdentical(t *testing.T) {
	f := newFixture(t, nil)
	queries := make([]httpapi.Vector, f.queries.N)
	for qi := range queries {
		queries[qi] = f.queries.Row(qi)
	}
	for _, opts := range []httpapi.SearchOptionsJSON{
		{K: 10},
		{K: 10, Budget: 150},
		{K: f.data.N + 10},
	} {
		body := marshal(t, httpapi.BatchSearchRequest{Queries: queries, SearchOptionsJSON: opts})
		f.mustEqualBatchResults("/v1/indexes/trees/search_batch", body)
	}
}

// The decimal forms of the search requests: []float32 fields, which
// encoding/json writes as arrays of numbers, as curl users and clients
// predating httpapi.Vector send them.
type decimalSearch struct {
	Query []float32 `json:"query"`
	httpapi.SearchOptionsJSON
}

type decimalBatch struct {
	Queries [][]float32 `json:"queries"`
	httpapi.SearchOptionsJSON
}

// TestRouterDecimalAndBase64ByteIdentical: a query sent as decimal and the
// same query sent as base64 get the same response bytes from the router —
// single, budgeted, filtered and batch — and a single query's bytes are the
// oracle daemon's too. Members run with the result cache off, so both forms
// reach the trees.
func TestRouterDecimalAndBase64ByteIdentical(t *testing.T) {
	f := newFixture(t, nil)
	qs := make([][]float32, f.queries.N)
	vs := make([]httpapi.Vector, f.queries.N)
	for i := range qs {
		qs[i] = f.queries.Row(i)
		vs[i] = qs[i]
	}
	const path = "/v1/indexes/trees/search"
	for _, opts := range []httpapi.SearchOptionsJSON{
		{K: 10},
		{K: 10, Budget: 150},
		{K: 10, Filter: p2h.TagIs("warm")},
		{K: 10, Budget: 150, Filter: p2h.AllOf(p2h.TagIs("even"), p2h.FieldAtLeast("score", 0.5))},
	} {
		for qi := range qs {
			oracle, dec := f.postBoth(path, marshal(t, decimalSearch{qs[qi], opts}))
			_, bin := post(t, f.router, path, marshal(t, httpapi.SearchRequest{Query: vs[qi], SearchOptionsJSON: opts}))
			if !bytes.Equal(oracle, dec) || !bytes.Equal(dec, bin) {
				t.Fatalf("query %d %+v: oracle answered %s, router %s as decimal and %s as base64", qi, opts, oracle, dec, bin)
			}
		}
		s1, want := post(t, f.router, path+"_batch", marshal(t, decimalBatch{qs, opts}))
		s2, got := post(t, f.router, path+"_batch", marshal(t, httpapi.BatchSearchRequest{Queries: vs, SearchOptionsJSON: opts}))
		if s1 != http.StatusOK || s2 != http.StatusOK || !bytes.Equal(want, got) {
			t.Fatalf("batch %+v: decimal answered %d %s, base64 %d %s", opts, s1, want, s2, got)
		}
	}
}

// TestFilteredMergeOracle covers the filtered case the wire cannot carry
// (Filter is an arbitrary function): searching the member shard trees
// in-process with the translated filter and merging through the router's
// merge path must reproduce the sharded index's filtered answers exactly.
func TestFilteredMergeOracle(t *testing.T) {
	data := p2h.Dedup(p2h.GenerateDataset("Sift", 800, 3))
	spec := p2h.Spec{Kind: p2h.KindSharded, Shards: 3, LeafSize: 20, Seed: 9}
	sharded, err := p2h.New(data, spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := p2h.ShardPlan(data, spec)
	trees := make([]p2h.Index, len(plan))
	var total int64
	for si, part := range plan {
		trees[si], err = p2h.New(data.SubsetRows(part), p2h.Spec{
			Kind: p2h.KindBCTree, LeafSize: spec.LeafSize, Seed: spec.Seed + int64(si) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(part))
	}
	filter := func(id int32) bool { return id%2 == 0 }
	queries := p2h.GenerateQueries(data, 10, 5)
	for _, budget := range []int{0, 120} {
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			opts := p2h.SearchOptions{K: 10, Budget: budget, Filter: filter}
			want, _ := sharded.Search(q, opts)

			lists := make([][]httpapi.ResultJSON, len(trees))
			for si, tree := range trees {
				wire := shardOptions(httpapi.SearchOptionsJSON{K: opts.K, Budget: opts.Budget}, int64(len(plan[si])), total)
				part := plan[si]
				res, _ := tree.Search(q, p2h.SearchOptions{
					K: wire.K, Budget: wire.Budget,
					Filter: func(local int32) bool { return filter(part[local]) },
				})
				list := make([]httpapi.ResultJSON, len(res))
				for i, r := range res {
					list[i] = httpapi.ResultJSON{ID: r.ID, Dist: r.Dist}
				}
				if err := translateIDs(ShardConfig{IDs: part}, list); err != nil {
					t.Fatal(err)
				}
				lists[si] = list
			}
			got := mergeTopK(lists, opts.K)
			if len(got) != len(want) {
				t.Fatalf("budget %d query %d: got %d results, want %d", budget, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
					t.Fatalf("budget %d query %d result %d: got (%d,%v), want (%d,%v)",
						budget, qi, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
				}
			}
			for _, r := range got {
				if !filter(r.ID) {
					t.Fatalf("filtered merge leaked id %d", r.ID)
				}
			}
		}
	}
}

// TestMergeMatchesSortResults pins the merge order to core.SortResults on
// tie-heavy input.
func TestMergeMatchesSortResults(t *testing.T) {
	lists := [][]httpapi.ResultJSON{
		{{ID: 5, Dist: 1.0}, {ID: 2, Dist: 2.0}},
		{{ID: 1, Dist: 1.0}, {ID: 9, Dist: 1.0}, {ID: 3, Dist: 2.0}},
		{},
		{{ID: 0, Dist: 0.5}},
	}
	var flat []core.Result
	for _, l := range lists {
		for _, r := range l {
			flat = append(flat, core.Result{ID: r.ID, Dist: r.Dist})
		}
	}
	core.SortResults(flat)
	got := mergeTopK(lists, 4)
	if len(got) != 4 {
		t.Fatalf("got %d results, want 4", len(got))
	}
	for i := range got {
		if got[i].ID != flat[i].ID || got[i].Dist != flat[i].Dist {
			t.Fatalf("result %d: got (%d,%v), want (%d,%v)", i, got[i].ID, got[i].Dist, flat[i].ID, flat[i].Dist)
		}
	}
}

func TestHedgeCancelsSlowPrimary(t *testing.T) {
	f := newFixture(t, nil)
	f.slow[0].Store(true) // primary of shard 0 hangs; its replica m1 is fast

	body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(0), SearchOptionsJSON: httpapi.SearchOptionsJSON{K: 10}})
	_, want := post(t, f.oracle, "/v1/indexes/trees/search", body)
	start := time.Now()
	gotStatus, got := post(t, f.router, "/v1/indexes/trees/search", body)
	elapsed := time.Since(start)
	if gotStatus != http.StatusOK {
		t.Fatalf("router answered %d: %s", gotStatus, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("hedged answer differs from oracle:\n%s\nvs\n%s", got, want)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hedged request took %v — hedge did not fire", elapsed)
	}
	if f.rt.metrics.hedges.Load() == 0 {
		t.Fatal("no hedge recorded")
	}
	// The loser (the hung primary) must be canceled once the hedge wins.
	select {
	case m := <-f.canceled:
		if m != "m0" {
			t.Fatalf("canceled %s, want m0", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow primary's request was never canceled")
	}
}

func TestMemberDownFallsBackToReplica(t *testing.T) {
	f := newFixture(t, nil)
	body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(1), SearchOptionsJSON: httpapi.SearchOptionsJSON{K: 10}})
	_, want := post(t, f.oracle, "/v1/indexes/trees/search", body)

	// Kill member 0 (primary of shard 0). First query: the router still
	// believes it healthy and falls back on the transport error.
	f.members[0].Close()
	status, got := post(t, f.router, "/v1/indexes/trees/search", body)
	if status != http.StatusOK {
		t.Fatalf("router answered %d after member kill: %s", status, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("fallback answer differs from oracle")
	}
	if f.rt.metrics.fallbacks.Load() == 0 && f.rt.metrics.hedges.Load() == 0 {
		t.Fatal("no fallback or hedge recorded for the dead primary")
	}

	// After a probe round the member is Down and routing avoids it up front.
	f.rt.probeRound()
	if st := f.rt.members["m0"].getState(); st != StateDown {
		t.Fatalf("m0 state after probe = %v, want down", st)
	}
	targets := f.rt.shardTargets(f.cfg.Indexes["trees"].Shards[0])
	if len(targets) != 1 || targets[0].name != "m1" {
		t.Fatalf("targets after probe = %v, want [m1]", memberNames(targets))
	}
	status, got = post(t, f.router, "/v1/indexes/trees/search", body)
	if status != http.StatusOK || !bytes.Equal(want, got) {
		t.Fatalf("post-probe answer wrong: status %d", status)
	}

	// Batch keeps working off the replica too.
	queries := []httpapi.Vector{f.queries.Row(0), f.queries.Row(2)}
	bbody := marshal(t, httpapi.BatchSearchRequest{Queries: queries, SearchOptionsJSON: httpapi.SearchOptionsJSON{K: 5}})
	f.mustEqualBatchResults("/v1/indexes/trees/search_batch", bbody)

	// Router health reports the sick member but stays routable.
	resp, err := http.Get(f.router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h ClusterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("health = %d %q, want 200 degraded", resp.StatusCode, h.Status)
	}
	if h.Members["m0"].State != "down" {
		t.Fatalf("m0 health state = %q, want down", h.Members["m0"].State)
	}
}

// TestMemberKilledMidStream: the primary of shard 0 dies while searches are in
// flight, not before them — every one of 400 responses, those cut off
// mid-request included, must be 200 and byte-equal to the oracle's, answered
// off the replica. The router is not told: no probe round runs, so each
// request after the kill finds the member out by failing against it.
func TestMemberKilledMidStream(t *testing.T) {
	f := newFixture(t, nil)
	const clients, perClient, killAfter = 4, 100, 40
	bodies := make([][]byte, f.queries.N)
	wants := make([][]byte, f.queries.N)
	for qi := range bodies {
		bodies[qi] = marshal(t, httpapi.SearchRequest{Query: f.queries.Row(qi), SearchOptionsJSON: httpapi.SearchOptionsJSON{K: 10}})
		_, wants[qi] = post(t, f.oracle, "/v1/indexes/trees/search", bodies[qi])
	}

	var answered atomic.Int64
	kill := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c + i) % len(bodies)
				resp, err := http.Post(f.router.URL+"/v1/indexes/trees/search", "application/json", bytes.NewReader(bodies[qi]))
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
				} else {
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, wants[qi]) {
						t.Errorf("client %d request %d: status %d, read error %v, equal to oracle %v",
							c, i, resp.StatusCode, err, bytes.Equal(got, wants[qi]))
					}
				}
				if answered.Add(1) == killAfter {
					close(kill)
				}
			}
		}(c)
	}
	<-kill
	f.members[0].CloseClientConnections()
	f.members[0].Close()
	wg.Wait()
	if f.rt.metrics.fallbacks.Load()+f.rt.metrics.hedges.Load() == 0 {
		t.Fatal("no fallback or hedge recorded for the member killed mid-stream")
	}
}

func memberNames(ms []*member) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	return names
}

func TestShipReplicatesSnapshot(t *testing.T) {
	f := newFixture(t, nil)
	// m2 is not a holder of shard 0; make it one and ship the snapshot over.
	im := f.cfg.Indexes["trees"]
	im.Shards[0].Replicas = append(im.Shards[0].Replicas, "m2")
	rt, err := NewRouter(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.probeRound()

	reports, err := rt.Ship(context.Background(), "trees", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Points != len(f.plan[0]) {
		t.Fatalf("shipped %d points, want %d", rep.Points, len(f.plan[0]))
	}
	if len(rep.Replicas) != 2 {
		t.Fatalf("got %d replica results, want 2", len(rep.Replicas))
	}
	for _, rr := range rep.Replicas {
		if !rr.OK {
			t.Fatalf("replica %s failed: %s", rr.Member, rr.Error)
		}
	}
	// m2 now serves the shard.
	info, err := rt.members["m2"].indexInfo(context.Background(), "trees-s0")
	if err != nil {
		t.Fatal(err)
	}
	if info.N != len(f.plan[0]) {
		t.Fatalf("m2 serves %d points, want %d", info.N, len(f.plan[0]))
	}

	// With the primary and first replica gone, the shipped copy answers —
	// and still byte-identically to the oracle.
	body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(3), SearchOptionsJSON: httpapi.SearchOptionsJSON{K: 10}})
	_, want := post(t, f.oracle, "/v1/indexes/trees/search", body)
	f.members[0].Close()
	f.members[1].Close()
	rt.probeRound()
	router := httptest.NewServer(NewHandler(rt))
	defer router.Close()
	status, got := post(t, router, "/v1/indexes/trees/search", body)
	if status != http.StatusOK {
		t.Fatalf("search off shipped replica answered %d: %s", status, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("shipped replica's answer differs from oracle")
	}
}

func TestRouterInfoAndList(t *testing.T) {
	f := newFixture(t, nil)
	var info httpapi.IndexInfoResponse
	resp, err := http.Get(f.router.URL + "/v1/indexes/trees")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Kind != "cluster" || info.N != f.data.N || info.Dim != f.data.D {
		t.Fatalf("info = kind %q n %d dim %d, want cluster %d %d", info.Kind, info.N, info.Dim, f.data.N, f.data.D)
	}
	status, body := post(t, f.router, "/v1/indexes/nope/search",
		marshal(t, httpapi.SearchRequest{Query: f.queries.Row(0)}))
	if status != http.StatusNotFound {
		t.Fatalf("unknown index answered %d: %s", status, body)
	}
}

// TestRouterBodyTooLarge: the router decodes bodies with the member daemons'
// own decoder, so an over-limit body is 413 body_too_large on both — not 400
// bad_request on one of them. The limit itself is 64 MiB; a reader in front of
// the handler trips it early, which is all the decoder can see either way.
func TestRouterBodyTooLarge(t *testing.T) {
	f := newFixture(t, nil)
	handler := NewHandler(f.rt)
	small := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, 256)
		handler.ServeHTTP(w, r)
	}))
	defer small.Close()
	queries := make([]httpapi.Vector, 8)
	for i := range queries {
		queries[i] = f.queries.Row(i % f.queries.N)
	}
	status, body := post(t, small, "/v1/indexes/trees/search_batch", marshal(t, httpapi.BatchSearchRequest{Queries: queries}))
	var resp httpapi.ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if status != http.StatusRequestEntityTooLarge || resp.Code != "body_too_large" {
		t.Fatalf("over-limit batch answered %d %q (%s), want 413 body_too_large", status, resp.Code, resp.Error)
	}
}

func TestRouterMetricsExposition(t *testing.T) {
	f := newFixture(t, nil)
	body := marshal(t, httpapi.SearchRequest{Query: f.queries.Row(0), SearchOptionsJSON: httpapi.SearchOptionsJSON{K: 3}})
	post(t, f.router, "/v1/indexes/trees/search", body)
	resp, err := http.Get(f.router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		`p2hd_router_requests_total{endpoint="search",code="200"} 1`,
		`p2hd_router_member_state{member="m0"} 1`,
		"p2hd_router_hedges_total",
		"p2hd_router_member_requests_total",
		`p2hd_build_info{go_version="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestStatusReport(t *testing.T) {
	f := newFixture(t, nil)
	rows, members, err := Status(context.Background(), f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != testMembers {
		t.Fatalf("%d members, want %d", len(members), testMembers)
	}
	if len(rows) != testShards*2 {
		t.Fatalf("%d rows, want %d", len(rows), testShards*2)
	}
	for _, row := range rows {
		if row.Points != len(f.plan[row.Shard]) {
			t.Fatalf("row %+v: points %d, want %d", row, row.Points, len(f.plan[row.Shard]))
		}
		if row.Lag != 0 {
			t.Fatalf("row %+v: lag %d, want 0", row, row.Lag)
		}
		if row.State != "healthy" {
			t.Fatalf("row %+v: state %q, want healthy", row, row.State)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Members: map[string]MemberConfig{"a": {URL: "http://x"}, "b": {URL: "http://y"}},
		Indexes: map[string]IndexMap{"i": {Shards: []ShardConfig{
			{Index: "i-s0", Primary: "a", Replicas: []string{"b"}},
		}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	base := func() Config {
		c := good
		c.Indexes = map[string]IndexMap{"i": {Shards: []ShardConfig{
			{Index: "i-s0", Primary: "a", Replicas: []string{"b"}},
		}}}
		return c
	}
	cases := map[string]func(*Config){
		"no members":       func(c *Config) { c.Members = nil },
		"member no url":    func(c *Config) { c.Members = map[string]MemberConfig{"a": {}} },
		"no indexes":       func(c *Config) { c.Indexes = nil },
		"no shards":        func(c *Config) { c.Indexes = map[string]IndexMap{"i": {}} },
		"unknown primary":  func(c *Config) { c.Indexes["i"].Shards[0].Primary = "zz" },
		"unknown replica":  func(c *Config) { c.Indexes["i"].Shards[0].Replicas = []string{"zz"} },
		"duplicate holder": func(c *Config) { c.Indexes["i"].Shards[0].Replicas = []string{"a"} },
		"no member index":  func(c *Config) { c.Indexes["i"].Shards[0].Index = "" },
		"ids plus id_base": func(c *Config) {
			b := int32(5)
			c.Indexes["i"].Shards[0].IDBase = &b
			c.Indexes["i"].Shards[0].IDs = []int32{1}
		},
	}
	for name, tweak := range cases {
		c := base()
		tweak(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestTranslateIDs(t *testing.T) {
	res := []httpapi.ResultJSON{{ID: 0, Dist: 1}, {ID: 2, Dist: 2}}
	if err := translateIDs(ShardConfig{IDs: []int32{7, 8, 9}}, res); err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 7 || res[1].ID != 9 {
		t.Fatalf("ids = %d,%d, want 7,9", res[0].ID, res[1].ID)
	}
	base := int32(100)
	res = []httpapi.ResultJSON{{ID: 3}}
	if err := translateIDs(ShardConfig{IDBase: &base}, res); err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 103 {
		t.Fatalf("id = %d, want 103", res[0].ID)
	}
	if err := translateIDs(ShardConfig{IDs: []int32{7}}, []httpapi.ResultJSON{{ID: 9}}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}
