package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2h/internal/httpapi"
)

// MemberState is a member daemon's last observed health, as seen by the
// router's prober and per-request outcomes.
type MemberState int32

// The member states, from best to worst for routing purposes. Unknown (the
// state before the first probe answers) ranks between Degraded and Draining:
// an unprobed member may be fine, but a known-healthy or known-degraded one
// is the safer pick.
const (
	StateUnknown MemberState = iota
	StateHealthy
	StateDegraded
	StateDraining
	StateDown
)

// String names the state for /healthz, /metrics and logs.
func (s MemberState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// rank orders states for target selection; lower is preferred.
func (s MemberState) rank() int {
	switch s {
	case StateHealthy:
		return 0
	case StateDegraded:
		return 1
	case StateUnknown:
		return 2
	case StateDraining:
		return 3
	default: // StateDown
		return 4
	}
}

// MemberError is an API-level failure from a member daemon: the member
// answered, with an ErrorResponse. Transport failures stay plain errors.
type MemberError struct {
	// Member is the failing member's name.
	Member string
	// Status is the HTTP status the member answered.
	Status int
	// Code is the stable machine-readable code from the error envelope.
	Code string
	// Msg is the human-readable message.
	Msg string
	// RetryAfter is the member's Retry-After suggestion, when it sent one.
	RetryAfter time.Duration
}

// Error formats the failure with its origin.
func (e *MemberError) Error() string {
	return fmt.Sprintf("member %s: %d %s: %s", e.Member, e.Status, e.Code, e.Msg)
}

// retryable reports whether a different member could plausibly answer where
// this one failed: transport errors and overload/availability statuses are
// retryable, client errors (a bad query is bad everywhere) and expired
// deadlines (no time left anywhere) are not.
func retryable(err error) bool {
	var me *MemberError
	if errors.As(err, &me) {
		switch me.Status {
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusBadGateway, http.StatusServiceUnavailable:
			return true
		}
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// latencyRingSize is the per-member success-latency window the hedge delay
// is derived from: big enough for a stable p99, small enough to track a
// member that slows down within a few hundred requests.
const latencyRingSize = 128

// latencyRing is a fixed window of recent request latencies.
type latencyRing struct {
	mu      sync.Mutex
	samples [latencyRingSize]time.Duration
	n, next int
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.samples[r.next] = d
	r.next = (r.next + 1) % latencyRingSize
	if r.n < latencyRingSize {
		r.n++
	}
	r.mu.Unlock()
}

// p99 returns the 99th-percentile latency of the window, or zero before any
// sample exists. It sorts a copy of the window on the stack, so a call
// allocates nothing.
func (r *latencyRing) p99() time.Duration {
	var buf [latencyRingSize]time.Duration
	r.mu.Lock()
	n := copy(buf[:], r.samples[:r.n])
	r.mu.Unlock()
	if n == 0 {
		return 0
	}
	slices.Sort(buf[:n])
	return buf[(n*99)/100]
}

// member is the router's view of one daemon: its location, its health as
// last probed, and its observed latency window.
type member struct {
	name string
	url  string
	hc   *http.Client

	state   atomic.Int32
	lastErr atomic.Value // string

	requests atomic.Int64
	failures atomic.Int64
	lat      latencyRing
}

func newMember(name string, cfg MemberConfig, hc *http.Client) *member {
	m := &member{name: name, url: cfg.URL, hc: hc}
	m.lastErr.Store("")
	return m
}

func (m *member) getState() MemberState { return MemberState(m.state.Load()) }

func (m *member) setState(s MemberState, reason string) {
	m.state.Store(int32(s))
	m.lastErr.Store(reason)
}

func (m *member) lastError() string {
	s, _ := m.lastErr.Load().(string)
	return s
}

// doJSON performs one request against the member, decoding either the
// success shape into out or the error envelope into a MemberError.
func (m *member) doJSON(ctx context.Context, method, path string, body, out any) error {
	var rdr io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rdr = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.url+path, rdr)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		return m.apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError lifts a member's error response into a MemberError.
func (m *member) apiError(resp *http.Response) error {
	me := &MemberError{Member: m.name, Status: resp.StatusCode}
	var envelope httpapi.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&envelope); err == nil {
		me.Code, me.Msg = envelope.Code, envelope.Error
	} else {
		me.Code, me.Msg = "unreadable_error", resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			me.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return me
}

// doSearchJSON is doJSON plus the overload protocol: a 429 is retried after
// the member's Retry-After suggestion for as long as the context allows —
// the member's admission control paces the router instead of failing the
// query — and successful calls feed the latency window the hedge delay is
// derived from.
func (m *member) doSearchJSON(ctx context.Context, path string, body, out any) error {
	for {
		start := time.Now()
		err := m.doJSON(ctx, http.MethodPost, path, body, out)
		m.requests.Add(1)
		if err == nil {
			m.lat.record(time.Since(start))
			return nil
		}
		m.failures.Add(1)
		var me *MemberError
		if !errors.As(err, &me) || me.Status != http.StatusTooManyRequests {
			return err
		}
		wait := me.RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// search asks the member one query against its index named index.
func (m *member) search(ctx context.Context, index string, req httpapi.SearchRequest) (*httpapi.SearchResponse, error) {
	var resp httpapi.SearchResponse
	if err := m.doSearchJSON(ctx, "/v1/indexes/"+index+"/search", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// searchBatch asks the member a whole batch against its index named index.
func (m *member) searchBatch(ctx context.Context, index string, req httpapi.BatchSearchRequest) (*httpapi.BatchSearchResponse, error) {
	var resp httpapi.BatchSearchResponse
	if err := m.doSearchJSON(ctx, "/v1/indexes/"+index+"/search_batch", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// healthz probes the member, decoding the health body even on the 503 the
// daemon answers while draining or swapping; the HTTP status comes back
// alongside so the caller can tell "sick" from "unreachable".
func (m *member) healthz(ctx context.Context) (httpapi.HealthResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/healthz", nil)
	if err != nil {
		return httpapi.HealthResponse{}, 0, err
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return httpapi.HealthResponse{}, 0, err
	}
	defer resp.Body.Close()
	var h httpapi.HealthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&h); err != nil {
		return httpapi.HealthResponse{}, resp.StatusCode, fmt.Errorf("member %s: healthz body: %w", m.name, err)
	}
	return h, resp.StatusCode, nil
}

// indexInfo fetches one index's info from the member.
func (m *member) indexInfo(ctx context.Context, index string) (httpapi.IndexInfoResponse, error) {
	var info httpapi.IndexInfoResponse
	err := m.doJSON(ctx, http.MethodGet, "/v1/indexes/"+index, nil, &info)
	return info, err
}

// downloadContainer streams the member's fresh snapshot of index into w,
// returning the point count and mutation epoch of the streamed cut.
func (m *member) downloadContainer(ctx context.Context, index string, w io.Writer) (points int, epoch uint64, size int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/indexes/"+index+"/container", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return 0, 0, 0, m.apiError(resp)
	}
	points, _ = strconv.Atoi(resp.Header.Get("X-P2H-Points"))
	epoch, _ = strconv.ParseUint(resp.Header.Get("X-P2H-Epoch"), 10, 64)
	size, err = io.Copy(w, resp.Body)
	return points, epoch, size, err
}

// restore uploads size bytes of container to the member, hot-swapping its
// index named index.
func (m *member) restore(ctx context.Context, index string, r io.Reader, size int64) (httpapi.IndexInfoResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+"/v1/indexes/"+index+"/restore", r)
	if err != nil {
		return httpapi.IndexInfoResponse{}, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := m.hc.Do(req)
	if err != nil {
		return httpapi.IndexInfoResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return httpapi.IndexInfoResponse{}, m.apiError(resp)
	}
	var info httpapi.IndexInfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return httpapi.IndexInfoResponse{}, err
	}
	return info, nil
}
