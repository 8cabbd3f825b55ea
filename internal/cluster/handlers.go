package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"p2h/internal/httpapi"
)

// MemberStatus is one member's entry in the router's health report.
type MemberStatus struct {
	// URL is the member's location.
	URL string `json:"url"`
	// State is the probed health ("healthy", "degraded", "draining",
	// "down", "unknown").
	State string `json:"state"`
	// LastError explains a non-healthy state.
	LastError string `json:"last_error,omitempty"`
	// Requests and Failures count traffic the router sent the member.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	// P99Seconds is the member's observed p99 latency over the recent
	// window (0: no samples yet).
	P99Seconds float64 `json:"p99_seconds"`
}

// ClusterHealthResponse answers GET /healthz on a router. Status is "ok"
// when every shard has a non-down holder, "degraded" (still 200) when some
// member is sick but every shard stays routable, and "unroutable" (503) when
// at least one shard has no live holder.
type ClusterHealthResponse struct {
	Status        string                  `json:"status"`
	UptimeSeconds int64                   `json:"uptime_seconds"`
	Indexes       int                     `json:"indexes"`
	Members       map[string]MemberStatus `json:"members"`
	Reason        string                  `json:"reason,omitempty"`
}

// ShipRequest asks the router to replicate snapshots. An empty index ships
// every logical index; a nil shard ships every shard of the selection.
type ShipRequest struct {
	Index string `json:"index,omitempty"`
	Shard *int   `json:"shard,omitempty"`
}

// ShipResponse reports the shipments.
type ShipResponse struct {
	Reports []ShipReport `json:"reports"`
}

// NewHandler builds the router's HTTP surface:
//
//	GET  /healthz                            cluster + member health
//	GET  /metrics                            Prometheus text format
//	GET  /v1/indexes                         list logical indexes
//	GET  /v1/indexes/{name}                  one logical index's info
//	POST /v1/indexes/{name}/search           scatter-gather one query
//	POST /v1/indexes/{name}/search_batch     scatter-gather a batch
//	POST /v1/cluster/ship                    replicate snapshots to replicas
//
// The index surface matches a member daemon's shapes (errors use the same
// envelope and codes), so single-daemon clients work against a router
// unchanged.
func NewHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		rt.metrics.http.Route(mux, pattern, endpoint, h)
	}
	route("GET /healthz", "healthz", rt.handleHealthz)
	route("GET /metrics", "metrics", rt.handleMetrics)
	route("GET /v1/indexes", "list", rt.handleList)
	route("GET /v1/indexes/{name}", "info", rt.handleInfo)
	route("POST /v1/indexes/{name}/search", "search", rt.handleSearch)
	route("POST /v1/indexes/{name}/search_batch", "search_batch", rt.handleSearchBatch)
	route("POST /v1/cluster/ship", "ship", rt.handleShip)
	return mux
}

// fail maps a routing error onto the member daemons' error envelope. A
// member's API error passes through with its own status and code (the
// router adds nothing a client could act on); the two router-side conditions
// get their own stable codes; everything else — a malformed or over-limit
// body, a deadline — is the member daemons' own table.
func fail(w http.ResponseWriter, err error) {
	var me *MemberError
	var status int
	var code string
	switch {
	case errors.As(err, &me):
		status, code = me.Status, me.Code
	case errors.Is(err, ErrUnknownIndex):
		status, code = http.StatusNotFound, "index_not_found"
	case errors.Is(err, ErrNoMembers):
		status, code = http.StatusServiceUnavailable, "no_member_available"
	default:
		status, code = httpapi.ErrorStatus(err)
	}
	httpapi.WriteJSON(w, status, httpapi.ErrorResponse{Error: err.Error(), Code: code})
}

// errBadRequest tags the router's own request-shape complaints like the ones
// httpapi.DecodeBody makes.
var errBadRequest = httpapi.ErrBadRequest

// Health summarizes cluster routability and per-member detail.
func (rt *Router) Health() (ClusterHealthResponse, int) {
	resp := ClusterHealthResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(rt.started).Seconds()),
		Indexes:       len(rt.indexes),
		Members:       make(map[string]MemberStatus, len(rt.members)),
	}
	sick := 0
	for name, m := range rt.members {
		st := m.getState()
		resp.Members[name] = MemberStatus{
			URL:        m.url,
			State:      st.String(),
			LastError:  m.lastError(),
			Requests:   m.requests.Load(),
			Failures:   m.failures.Load(),
			P99Seconds: m.lat.p99().Seconds(),
		}
		if st == StateDown || st == StateDraining {
			sick++
		}
	}
	status := http.StatusOK
	for _, ri := range rt.indexes {
		for si, rs := range ri.shards {
			live := false
			for _, holder := range append([]string{rs.cfg.Primary}, rs.cfg.Replicas...) {
				if rt.members[holder].getState() != StateDown {
					live = true
					break
				}
			}
			if !live {
				resp.Status = "unroutable"
				resp.Reason = fmt.Sprintf("index %q shard %d: every holder is down", ri.name, si)
				return resp, http.StatusServiceUnavailable
			}
		}
	}
	if sick > 0 {
		resp.Status = "degraded"
		resp.Reason = fmt.Sprintf("%d member(s) down or draining; all shards still routable", sick)
	}
	return resp, status
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp, status := rt.Health()
	httpapi.WriteJSON(w, status, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	rt.renderMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	resp := httpapi.ListResponse{Indexes: []httpapi.IndexInfoResponse{}}
	for _, name := range rt.IndexNames() {
		info, err := rt.Info(r.Context(), name)
		if err != nil {
			fail(w, err)
			return
		}
		resp.Indexes = append(resp.Indexes, info)
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := rt.Info(r.Context(), r.PathValue("name"))
	if err != nil {
		fail(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, info)
}

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req httpapi.SearchRequest
	if err := httpapi.DecodeBody(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	if req.TimeoutMS < 0 {
		fail(w, fmt.Errorf("%w: negative timeout_ms %d", errBadRequest, req.TimeoutMS))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.deadlines.Timeout(req.TimeoutMS))
	defer cancel()
	resp, err := rt.Search(ctx, r.PathValue("name"), req)
	if err != nil {
		fail(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req httpapi.BatchSearchRequest
	if err := httpapi.DecodeBody(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	if len(req.Queries) == 0 {
		fail(w, fmt.Errorf("%w: empty \"queries\"", errBadRequest))
		return
	}
	if req.TimeoutMS < 0 {
		fail(w, fmt.Errorf("%w: negative timeout_ms %d", errBadRequest, req.TimeoutMS))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.deadlines.Timeout(req.TimeoutMS))
	defer cancel()
	resp, err := rt.SearchBatch(ctx, r.PathValue("name"), req)
	if err != nil {
		fail(w, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleShip(w http.ResponseWriter, r *http.Request) {
	var req ShipRequest
	if err := httpapi.DecodeBody(w, r, &req); err != nil {
		fail(w, err)
		return
	}
	shard := -1
	if req.Shard != nil {
		if *req.Shard < 0 {
			fail(w, fmt.Errorf("%w: negative shard %d", errBadRequest, *req.Shard))
			return
		}
		shard = *req.Shard
	}
	indexes := rt.IndexNames()
	if req.Index != "" {
		indexes = []string{req.Index}
	}
	var resp ShipResponse
	for _, name := range indexes {
		reports, err := rt.Ship(r.Context(), name, shard)
		resp.Reports = append(resp.Reports, reports...)
		if err != nil {
			fail(w, err)
			return
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}
