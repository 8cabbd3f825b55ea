package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"

	"p2h/internal/httpapi"
)

// Prometheus text-format metrics for the router, stdlib only, mirroring the
// member daemons' exposition style: per-endpoint request counters by status
// code, per-endpoint latency histograms, router fan-out counters (hedges,
// hedge wins, fallbacks, ships) and per-member health/traffic series.

// routerMetrics is the router-wide registry: the request counters and latency
// histograms every p2hd page starts with (httpapi.Metrics, under the router's
// prefix) and the fan-out counters.
type routerMetrics struct {
	http *httpapi.Metrics

	hedges    atomic.Int64
	hedgeWins atomic.Int64
	fallbacks atomic.Int64
	ships     atomic.Int64
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{http: httpapi.NewMetrics("p2hd_router",
		"Router HTTP requests served, by endpoint and status code.", "Router request latency, by endpoint.")}
}

// render writes the whole exposition. Output is deterministic (sorted label
// values) so tests and diffs stay stable.
func (rt *Router) renderMetrics(w *strings.Builder) {
	m := rt.metrics
	m.http.Render(w)

	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"p2hd_router_hedges_total", "Hedge attempts launched against replicas.", &m.hedges},
		{"p2hd_router_hedge_wins_total", "Shard answers won by a non-primary attempt.", &m.hedgeWins},
		{"p2hd_router_fallbacks_total", "Immediate failovers after a retryable member error.", &m.fallbacks},
		{"p2hd_router_ships_total", "Snapshot shipments completed.", &m.ships},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v.Load())
	}

	members := rt.MemberNames()
	w.WriteString("# HELP p2hd_router_member_state Member health as probed (0 unknown, 1 healthy, 2 degraded, 3 draining, 4 down).\n")
	w.WriteString("# TYPE p2hd_router_member_state gauge\n")
	for _, name := range members {
		fmt.Fprintf(w, "p2hd_router_member_state{member=%q} %d\n", name, rt.members[name].getState())
	}
	w.WriteString("# HELP p2hd_router_member_requests_total Requests sent to each member.\n")
	w.WriteString("# TYPE p2hd_router_member_requests_total counter\n")
	for _, name := range members {
		fmt.Fprintf(w, "p2hd_router_member_requests_total{member=%q} %d\n", name, rt.members[name].requests.Load())
	}
	w.WriteString("# HELP p2hd_router_member_failures_total Failed requests to each member (transport or API error).\n")
	w.WriteString("# TYPE p2hd_router_member_failures_total counter\n")
	for _, name := range members {
		fmt.Fprintf(w, "p2hd_router_member_failures_total{member=%q} %d\n", name, rt.members[name].failures.Load())
	}
	w.WriteString("# HELP p2hd_router_member_p99_seconds Observed p99 latency per member over the recent window (0: no samples).\n")
	w.WriteString("# TYPE p2hd_router_member_p99_seconds gauge\n")
	for _, name := range members {
		fmt.Fprintf(w, "p2hd_router_member_p99_seconds{member=%q} %g\n", name, rt.members[name].lat.p99().Seconds())
	}
	httpapi.RenderBuildInfo(w)
}
