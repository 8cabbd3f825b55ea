package httpapi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	p2h "p2h"
	"p2h/internal/vec"
)

func TestMetricsRenderShape(t *testing.T) {
	m := newDaemonMetrics()
	m.endpoint("search") // pre-registered, no traffic: histogram renders zeroed
	m.endpoint("insert").record(200, 2*time.Millisecond)
	m.endpoint("insert").record(405, 100*time.Microsecond)

	var b strings.Builder
	renderDaemon(&b, m, []IndexInfoResponse{{
		Name: "a", Kind: "bctree", N: 42, IndexBytes: 1000,
		Stats: p2h.ServerStats{Queries: 7, CacheHits: 3},
	}}, false, true)
	text := b.String()
	for _, want := range []string{
		`p2hd_http_requests_total{endpoint="insert",code="200"} 1`,
		`p2hd_http_requests_total{endpoint="insert",code="405"} 1`,
		`p2hd_http_request_duration_seconds_bucket{endpoint="insert",le="0.0025"} 2`,
		`p2hd_http_request_duration_seconds_bucket{endpoint="insert",le="+Inf"} 2`,
		`p2hd_http_request_duration_seconds_count{endpoint="insert"} 2`,
		`p2hd_http_request_duration_seconds_count{endpoint="search"} 0`,
		`p2hd_index_queries_total{index="a",kind="bctree"} 7`,
		`p2hd_index_cache_hits_total{index="a",kind="bctree"} 3`,
		`p2hd_index_points{index="a",kind="bctree"} 42`,
		`p2hd_index_bytes{index="a",kind="bctree"} 1000`,
		`p2hd_index_shed_total{index="a",kind="bctree"} 0`,
		`p2hd_index_budget_ceiling{index="a",kind="bctree"} 0`,
		"p2hd_draining 0",
		"p2hd_swapping 1",
		"p2hd_degraded 0",
		fmt.Sprintf("p2hd_build_info{go_version=%q,goarch=%q,vec_kernel=%q} 1", runtime.Version(), runtime.GOARCH, vec.Kernel()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q\n%s", want, text)
		}
	}
	// Buckets are cumulative: the 100µs observation is already counted at
	// every wider bound.
	if !strings.Contains(text, `p2hd_http_request_duration_seconds_bucket{endpoint="insert",le="0.00025"} 1`) {
		t.Errorf("bucket counts not cumulative:\n%s", text)
	}
}
