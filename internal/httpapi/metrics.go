package httpapi

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2h/internal/server"
	"p2h/internal/vec"
)

// Prometheus text-format metrics, stdlib only: per-endpoint request counters
// by status code, per-endpoint latency histograms with fixed buckets, and
// per-index gauges/counters read live from the serving engines at scrape
// time (the engines already count; the scrape just renders their snapshot).

// endpointMetrics tracks one logical endpoint (route pattern, not URL).
type endpointMetrics struct {
	mu      sync.Mutex
	byCode  map[int]*atomic.Int64
	latency server.Histogram
}

// record counts one finished request. It touches only the endpoint's own
// state (a short mutex for the code counter plus atomics), never the
// registry's mutex.
func (em *endpointMetrics) record(status int, d time.Duration) {
	em.mu.Lock()
	c := em.byCode[status]
	if c == nil {
		c = &atomic.Int64{}
		em.byCode[status] = c
	}
	em.mu.Unlock()
	c.Add(1)
	em.latency.Observe(d)
}

// Metrics is the request half of a /metrics page — per-endpoint request
// counters by status code and latency histograms, named under one prefix. The
// daemon and the router (internal/cluster) each hold one and render their own
// series after it.
type Metrics struct {
	prefix                    string // series are <prefix>_requests_total, <prefix>_request_duration_seconds
	requestsHelp, latencyHelp string
	mu                        sync.Mutex
	endpoints                 map[string]*endpointMetrics
}

// NewMetrics returns an empty registry whose two series carry the given name
// prefix and HELP texts.
func NewMetrics(prefix, requestsHelp, latencyHelp string) *Metrics {
	return &Metrics{prefix: prefix, requestsHelp: requestsHelp, latencyHelp: latencyHelp,
		endpoints: make(map[string]*endpointMetrics)}
}

func newDaemonMetrics() *Metrics {
	return NewMetrics("p2hd_http", "HTTP requests served, by endpoint and status code.", "HTTP request latency, by endpoint.")
}

func (m *Metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[name]
	if em == nil {
		em = &endpointMetrics{byCode: make(map[int]*atomic.Int64)}
		m.endpoints[name] = em
	}
	return em
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Route registers h on mux under pattern, counted and timed as endpoint.
// Resolving the endpoint here pre-registers it (the scrape lists it from the
// start) and keeps the registry mutex off the request path.
func (m *Metrics) Route(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	em := m.endpoint(endpoint)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		em.record(rec.status, time.Since(start))
	})
}

// Render writes the two series. Output is deterministic (sorted label values)
// so tests and diffs stay stable.
func (m *Metrics) Render(w *strings.Builder) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	ems := make(map[string]*endpointMetrics, len(m.endpoints))
	for name, em := range m.endpoints {
		names = append(names, name)
		ems[name] = em
	}
	m.mu.Unlock()
	sort.Strings(names)

	requests, duration := m.prefix+"_requests_total", m.prefix+"_request_duration_seconds"
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", requests, m.requestsHelp, requests)
	for _, name := range names {
		em := ems[name]
		em.mu.Lock()
		codes := make([]int, 0, len(em.byCode))
		for code := range em.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "%s{endpoint=%q,code=\"%d\"} %d\n", requests, name, code, em.byCode[code].Load())
		}
		em.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", duration, m.latencyHelp, duration)
	for _, name := range names {
		h := ems[name].latency.Snapshot()
		for ub, cum := range h.Buckets() {
			// The bound in the shortest decimal form, no exponent at these
			// magnitudes, as Prometheus clients expect.
			fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=%q} %d\n", duration, name, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", duration, name, h.Total)
		fmt.Fprintf(w, "%s_sum{endpoint=%q} %g\n", duration, name, h.Sum.Seconds())
		fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", duration, name, h.Total)
	}
}

// renderDaemon writes the daemon's whole exposition: HTTP metrics from the
// registry, per-index engine counters from the manager's live snapshot, and
// the daemon-level overload gauges.
func renderDaemon(w *strings.Builder, m *Metrics, indexes []IndexInfoResponse, draining, swapping bool) {
	m.Render(w)
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
	{"p2hd_index_expired_total", "Searches the deadline left without an answer known to be complete, by index.", "counter",
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
