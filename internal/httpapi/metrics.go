package httpapi

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2h/internal/vec"
)

// Prometheus text-format metrics, stdlib only: per-endpoint request counters
// by status code, per-endpoint latency histograms with fixed buckets, and
// per-index gauges/counters read live from the serving engines at scrape
// time (the engines already count; the scrape just renders their snapshot).

// latencyBuckets are the histogram upper bounds in seconds, spanning
// cache-hit microseconds to stuck-second outliers.
const numLatencyBuckets = 16

var latencyBuckets = [numLatencyBuckets]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram safe for concurrent use.
// counts[i] covers observations <= latencyBuckets[i]; the +Inf bucket is
// implicit in total.
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

// endpointMetrics tracks one logical endpoint (route pattern, not URL).
type endpointMetrics struct {
	mu      sync.Mutex
	byCode  map[int]*atomic.Int64
	latency histogram
}

func (em *endpointMetrics) code(status int) *atomic.Int64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	c := em.byCode[status]
	if c == nil {
		c = &atomic.Int64{}
		em.byCode[status] = c
	}
	return c
}

// metrics is the daemon-wide registry. Endpoints are registered up front by
// the router, so the scrape path only reads.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[name]
	if em == nil {
		em = &endpointMetrics{byCode: make(map[int]*atomic.Int64)}
		m.endpoints[name] = em
	}
	return em
}

// record counts one finished request on a pre-resolved endpoint. The router
// resolves the *endpointMetrics once at registration, so the request path
// touches only the endpoint's own state (a short mutex for the code counter
// plus atomics), never the registry mutex.
func (em *endpointMetrics) record(status int, d time.Duration) {
	em.code(status).Add(1)
	em.latency.observe(d)
}

// render writes the whole exposition: HTTP metrics from the registry,
// per-index engine counters from the manager's live snapshot, and the
// daemon-level overload gauges. Output is deterministic (sorted label
// values) so tests and diffs stay stable.
func (m *metrics) render(w *strings.Builder, indexes []IndexInfoResponse, draining, swapping bool) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	ems := make(map[string]*endpointMetrics, len(m.endpoints))
	for name, em := range m.endpoints {
		ems[name] = em
	}
	m.mu.Unlock()
	sort.Strings(names)

	w.WriteString("# HELP p2hd_http_requests_total HTTP requests served, by endpoint and status code.\n")
	w.WriteString("# TYPE p2hd_http_requests_total counter\n")
	for _, name := range names {
		em := ems[name]
		em.mu.Lock()
		codes := make([]int, 0, len(em.byCode))
		for code := range em.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "p2hd_http_requests_total{endpoint=%q,code=\"%d\"} %d\n",
				name, code, em.byCode[code].Load())
		}
		em.mu.Unlock()
	}

	w.WriteString("# HELP p2hd_http_request_duration_seconds HTTP request latency, by endpoint.\n")
	w.WriteString("# TYPE p2hd_http_request_duration_seconds histogram\n")
	for _, name := range names {
		h := &ems[name].latency
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "p2hd_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, formatBucket(ub), cum)
		}
		total := h.total.Load()
		fmt.Fprintf(w, "p2hd_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, total)
		fmt.Fprintf(w, "p2hd_http_request_duration_seconds_sum{endpoint=%q} %g\n",
			name, time.Duration(h.sumNS.Load()).Seconds())
		fmt.Fprintf(w, "p2hd_http_request_duration_seconds_count{endpoint=%q} %d\n", name, total)
	}

	renderIndexMetrics(w, indexes)
	renderDaemonGauges(w, indexes, draining, swapping)
	RenderBuildInfo(w)
}

// RenderBuildInfo emits the constant p2hd_build_info series whose labels say
// what produced every other number on the page: the Go release, the
// architecture, and which float kernel internal/vec selected at start-up.
// The daemon and the router both end their exposition with it.
func RenderBuildInfo(w *strings.Builder) {
	w.WriteString("# HELP p2hd_build_info Build and runtime facts, as labels on a constant 1.\n# TYPE p2hd_build_info gauge\n")
	fmt.Fprintf(w, "p2hd_build_info{go_version=%q,goarch=%q,vec_kernel=%q} 1\n",
		runtime.Version(), runtime.GOARCH, vec.Kernel())
}

// renderDaemonGauges emits the daemon-level overload signals: whether the
// manager is draining or mid-swap (the /healthz 503 conditions) and whether
// any index serves degraded — the gauges an operator alerts on.
func renderDaemonGauges(w *strings.Builder, indexes []IndexInfoResponse, draining, swapping bool) {
	degraded := 0
	for _, ix := range indexes {
		if ix.Stats.BudgetCeiling > 0 {
			degraded = 1
			break
		}
	}
	for _, g := range []struct {
		name, help string
		value      int
	}{
		{"p2hd_draining", "1 while the daemon is draining for shutdown.", b2i(draining)},
		{"p2hd_swapping", "1 while an index hot-swap is retiring its old engine.", b2i(swapping)},
		{"p2hd_degraded", "1 while any index serves under an SLO budget ceiling.", degraded},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.value)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// formatBucket renders a bucket bound the way Prometheus clients expect
// (shortest decimal form, no exponent for these magnitudes).
func formatBucket(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}

// indexCounter describes one per-index series derived from the engine stats.
var indexCounters = []struct {
	name, help, typ string
	value           func(IndexInfoResponse) int64
}{
	{"p2hd_index_queries_total", "Searches served, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Queries }},
	{"p2hd_index_batches_total", "Serving calls (single searches and whole batches) the engine answered, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Batches }},
	{"p2hd_index_cache_hits_total", "Searches answered from the result cache, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.CacheHits }},
	{"p2hd_index_cache_misses_total", "Cacheable searches that ran the index, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.CacheMisses }},
	{"p2hd_index_inserts_total", "Successful inserts, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Inserts }},
	{"p2hd_index_deletes_total", "Deletes of live handles, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Deletes }},
	{"p2hd_index_mutation_epoch", "Mutation epoch (0 until the first mutation), by index.", "gauge",
		func(i IndexInfoResponse) int64 { return int64(i.Stats.Epoch) }},
	{"p2hd_index_compactions_total", "Background compaction cycles installed, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Compactions }},
	{"p2hd_index_pending_delta", "Un-folded delta (insert buffer + tombstones) searches pay for, by index.", "gauge",
		func(i IndexInfoResponse) int64 { return int64(i.Stats.PendingDelta) }},
	{"p2hd_index_points", "Indexed (live) points, by index.", "gauge",
		func(i IndexInfoResponse) int64 { return int64(i.N) }},
	{"p2hd_index_bytes", "Index structure memory footprint, by index.", "gauge",
		func(i IndexInfoResponse) int64 { return i.IndexBytes }},
	{"p2hd_index_shed_total", "Searches rejected by admission control (HTTP 429), by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Shed }},
	{"p2hd_index_expired_total", "Searches whose deadline fired before index work ran, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Expired }},
	{"p2hd_index_worker_panics_total", "Panics raised while serving and returned to their caller, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.Panics }},
	{"p2hd_index_degraded_queries_total", "Searches whose budget the degradation ceiling clamped, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.DegradedQueries }},
	{"p2hd_index_budget_ceiling", "Current degradation budget ceiling (0: serving exact), by index.", "gauge",
		func(i IndexInfoResponse) int64 { return int64(i.Stats.BudgetCeiling) }},
	{"p2hd_index_backlog", "Admitted-but-unfinished queries, by index.", "gauge",
		func(i IndexInfoResponse) int64 { return i.Stats.Backlog }},
	{"p2hd_index_filter_skipped_nodes_total", "Whole subtrees pruned by predicate pushdown, by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.FilterSkippedNodes }},
	{"p2hd_index_filter_skipped_points_total", "Points under pushdown-pruned subtrees (post-filter work avoided), by index.", "counter",
		func(i IndexInfoResponse) int64 { return i.Stats.FilterSkippedPoints }},
}

// walCounters are the per-index series that only exist for indexes with a
// write-ahead log attached; indexes without one emit no sample.
var walCounters = []struct {
	name, help, typ string
	value           func(*WALInfoJSON) int64
}{
	{"p2hd_index_wal_records", "Pending write-ahead log records (acknowledged mutations not yet snapshotted), by index.", "gauge",
		func(w *WALInfoJSON) int64 { return w.Records }},
	{"p2hd_index_wal_replayed_records_total", "Write-ahead log records replayed at load time, by index.", "counter",
		func(w *WALInfoJSON) int64 { return int64(w.Replayed) }},
	{"p2hd_index_wal_syncs_total", "Fsyncs the write-ahead log issued (records/syncs is the group-commit amortization), by index.", "counter",
		func(w *WALInfoJSON) int64 { return w.Syncs }},
}

func renderIndexMetrics(w *strings.Builder, indexes []IndexInfoResponse) {
	for _, c := range indexCounters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.typ)
		for _, ix := range indexes {
			fmt.Fprintf(w, "%s{index=%q,kind=%q} %d\n", c.name, ix.Name, ix.Kind, c.value(ix))
		}
	}
	for _, c := range walCounters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.typ)
		for _, ix := range indexes {
			if ix.WAL != nil {
				fmt.Fprintf(w, "%s{index=%q,kind=%q} %d\n", c.name, ix.Name, ix.Kind, c.value(ix.WAL))
			}
		}
	}
}
