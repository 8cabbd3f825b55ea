package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2h/internal/httpapi"
)

// Prometheus text-format metrics for the router, stdlib only, mirroring the
// member daemons' exposition style: per-endpoint request counters by status
// code, per-endpoint latency histograms, router fan-out counters (hedges,
// hedge wins, fallbacks, ships) and per-member health/traffic series.

const numLatencyBuckets = 16

var latencyBuckets = [numLatencyBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type histogram struct {
	counts [numLatencyBuckets]atomic.Int64
	total  atomic.Int64
	sumNS  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.total.Add(1)
	h.sumNS.Add(int64(d))
}

type endpointMetrics struct {
	mu      sync.Mutex
	byCode  map[int]*atomic.Int64
	latency histogram
}

func (em *endpointMetrics) record(status int, d time.Duration) {
	em.mu.Lock()
	c := em.byCode[status]
	if c == nil {
		c = &atomic.Int64{}
		em.byCode[status] = c
	}
	em.mu.Unlock()
	c.Add(1)
	em.latency.observe(d)
}

// routerMetrics is the router-wide registry.
type routerMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics

	hedges    atomic.Int64
	hedgeWins atomic.Int64
	fallbacks atomic.Int64
	ships     atomic.Int64
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *routerMetrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[name]
	if em == nil {
		em = &endpointMetrics{byCode: make(map[int]*atomic.Int64)}
		m.endpoints[name] = em
	}
	return em
}

func formatBucket(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}

// render writes the whole exposition. Output is deterministic (sorted label
// values) so tests and diffs stay stable.
func (rt *Router) renderMetrics(w *strings.Builder) {
	m := rt.metrics
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	ems := make(map[string]*endpointMetrics, len(m.endpoints))
	for name, em := range m.endpoints {
		names = append(names, name)
		ems[name] = em
	}
	m.mu.Unlock()
	sort.Strings(names)

	w.WriteString("# HELP p2hd_router_requests_total Router HTTP requests served, by endpoint and status code.\n")
	w.WriteString("# TYPE p2hd_router_requests_total counter\n")
	for _, name := range names {
		em := ems[name]
		em.mu.Lock()
		codes := make([]int, 0, len(em.byCode))
		for code := range em.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "p2hd_router_requests_total{endpoint=%q,code=\"%d\"} %d\n",
				name, code, em.byCode[code].Load())
		}
		em.mu.Unlock()
	}

	w.WriteString("# HELP p2hd_router_request_duration_seconds Router request latency, by endpoint.\n")
	w.WriteString("# TYPE p2hd_router_request_duration_seconds histogram\n")
	for _, name := range names {
		h := &ems[name].latency
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "p2hd_router_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, formatBucket(ub), cum)
		}
		total := h.total.Load()
		fmt.Fprintf(w, "p2hd_router_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, total)
		fmt.Fprintf(w, "p2hd_router_request_duration_seconds_sum{endpoint=%q} %g\n",
			name, time.Duration(h.sumNS.Load()).Seconds())
		fmt.Fprintf(w, "p2hd_router_request_duration_seconds_count{endpoint=%q} %d\n", name, total)
	}

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
